import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from chordbasis.basis import REFERENCE_C_DIMS, connected_basis, express
from chordbasis.budget import Budget
from chordbasis.cache import content_digest
from chordbasis.diagrams import StringRep, canonicalize, diagram, is_connected
from chordbasis.errors import BudgetExceededError, ChordBasisError
from chordbasis.exactla import ExactMatrix, rref_dense
from chordbasis.symmetry import (
    GeneralizedBasisVector,
    _Frame,
    all_labeled_trees,
    apply_permutation,
    class_coords,
    diagram_from_multigraph,
    equivariant_to_text,
    equivariantize_greedy,
    equivariantize_m2,
    graph_form_basis,
    is_basis,
    orbit_report,
    orbit_report_to_text,
    prufer_edges,
    tree_basis,
    underlying_multigraph,
    vector_of,
    vector_sum,
    verify_equivariant,
)


# -- orbit reports ------------------------------------------------------

def test_single_circle_orbits_all_complete():
    report = orbit_report(connected_basis(1, 3))
    assert all(o.complete and o.size == 1 for o in report.orbits)
    assert report.incomplete_count == 0


def test_two_circle_three_chord_basis_has_incomplete_orbit():
    b = connected_basis(2, 3)
    report = orbit_report(b)
    assert report.incomplete_count >= 1
    # exactly one of the published example pair sits in the basis
    pair = {diagram("01|0122"), diagram("0012|12")}
    assert len(pair & set(b.basis)) == 1
    for o in report.orbits:
        if not o.complete:
            assert o.types, "incomplete orbits carry a type classification"
            assert o.types <= {"I", "II"}


def test_orbit_sizes_divide_group_order():
    from math import factorial

    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        report = orbit_report(connected_basis(m, n))
        for o in report.orbits:
            assert factorial(m) % o.size == 0


def test_orbit_report_partitions_basis():
    b = connected_basis(2, 3)
    report = orbit_report(b)
    counted = sum(len(o.basis_members) for o in report.orbits)
    assert counted == len(b.basis)


def test_orbit_report_text_format():
    text = orbit_report_to_text(orbit_report(connected_basis(2, 2)))
    assert text.startswith("orbit-report m=2 n=2 orbits=")
    assert "digest=sha256:" in text.splitlines()[0]


# -- trees --------------------------------------------------------------

def test_tree_counts_match_cayley():
    for n in range(0, 5):
        assert len(tree_basis(n)) == (n + 1) ** max(n - 1, 0)


def test_tree_basis_charges_every_tree_before_building_one():
    budget = Budget(max_candidates=125)
    assert len(tree_basis(4, budget)) == 125
    assert budget.candidates_used == 125
    # 13^11 trees on 13 circles: refused at once under the default cap
    began = time.monotonic()
    with pytest.raises(BudgetExceededError, match=f"{13 ** 11} > {10 ** 9}"):
        tree_basis(12, Budget())
    assert time.monotonic() - began < 1.0


def test_tree_basis_one_chord():
    assert [str(d) for d in tree_basis(1)] == ["0|0"]


def test_tree_roundtrip():
    for edges in all_labeled_trees(4):
        d = diagram_from_multigraph(edges, 4)
        assert is_connected(d)
        assert underlying_multigraph(d) == edges


def test_prufer_decode_known_tree():
    # sequence (0, 0) is the star at vertex 0 on four vertices
    assert prufer_edges((0, 0), 4) == ((0, 1), (0, 2), (0, 3))


def test_foot_permutation_invariance_for_tree_diagrams():
    # permuting the feet on one circle of a tree-type diagram does not
    # change its class
    rng = random.Random(5)
    for n in (2, 3):
        b = connected_basis(n + 1, n)
        for d in tree_basis(n)[:6]:
            rep = d.rep
            blocks = list(rep.blocks())
            sizes = [len(bl) for bl in blocks]
            candidates = [i for i, s in enumerate(sizes) if s >= 2]
            if not candidates:
                continue
            i = rng.choice(candidates)
            perm = list(blocks[i])
            rng.shuffle(perm)
            blocks[i] = tuple(perm)
            feet = tuple(c for bl in blocks for c in bl)
            permuted = canonicalize(StringRep(feet, rep.starts))
            assert express(permuted, b) == express(d, b)


def test_tree_basis_is_equivariant():
    for n in (1, 2, 3):
        b = connected_basis(n + 1, n)
        vectors = [vector_of(d) for d in tree_basis(n)]
        assert verify_equivariant(vectors, b)


# -- generalized vectors ------------------------------------------------

def test_generalized_vector_rejects_zero():
    with pytest.raises(ChordBasisError):
        GeneralizedBasisVector(())


def test_apply_permutation_to_combination():
    v = GeneralizedBasisVector(((diagram("00|"), Fraction(2)), (diagram("0|0"), Fraction(1))))
    image = apply_permutation(v, (1, 0))
    assert dict(image.terms) == {diagram("|00"): Fraction(2), diagram("0|0"): Fraction(1)}


def test_class_coords_of_basis_member_is_unit():
    b = connected_basis(2, 2)
    coords = class_coords(vector_of(b.basis[1]), b)
    assert coords == ((1, Fraction(1)),)


# -- equivariantization -------------------------------------------------

def test_equivariantize_one_chord_already_fixed():
    b = connected_basis(2, 1)
    vectors, history = equivariantize_m2(b)
    assert [str(v) for v in vectors] == ["1*0|0"]
    assert history == [0]


@pytest.mark.parametrize("n", [2, 3])
def test_equivariantize_small(n):
    b = connected_basis(2, n)
    vectors, history = equivariantize_m2(b)
    assert len(vectors) == REFERENCE_C_DIMS[(2, n)]
    assert history[-1] == 0
    assert all(later < earlier for earlier, later in zip(history, history[1:]))
    assert verify_equivariant(vectors, b)


def test_equivariantize_rejects_other_circle_counts():
    with pytest.raises(ChordBasisError):
        equivariantize_m2(connected_basis(3, 2))


def test_raw_two_circle_three_chord_basis_is_not_equivariant():
    b = connected_basis(2, 3)
    assert not verify_equivariant([vector_of(d) for d in b.basis], b)


def test_verify_equivariant_checks_cardinality():
    b = connected_basis(2, 2)
    assert not verify_equivariant([vector_of(b.basis[0])], b)


def test_production_solves_never_run_the_dense_oracle(monkeypatch):
    def refuse(mat):
        raise AssertionError("the dense RREF is an oracle only")

    # every binding of the name, so no import can reach the original
    for module in list(sys.modules.values()):
        if module.__name__.startswith("chordbasis") and hasattr(module, "rref_dense"):
            monkeypatch.setattr(module, "rref_dense", refuse)
    assert orbit_report(connected_basis(2, 3)).incomplete_count == 1
    b = connected_basis(2, 3)
    vectors, _ = equivariantize_m2(b)
    assert verify_equivariant(vectors, b)
    assert len(equivariantize_greedy(connected_basis(3, 3))[0]) == 16


def test_equivariantize_greedy_contract():
    b = connected_basis(3, 3)
    vectors, finished, history = equivariantize_greedy(b)
    assert len(vectors) == 16
    assert isinstance(finished, bool)
    if finished:
        assert verify_equivariant(vectors, b)
        assert history[-1] == 0


# -- per-graph bases ----------------------------------------------------

def test_underlying_multigraph():
    assert underlying_multigraph(diagram("0102|12")) == ((0, 0), (0, 1), (0, 1))


def test_graph_form_basis_three_three():
    b = connected_basis(3, 3)
    reps = graph_form_basis(b)
    assert len(reps) == 16
    assert len({underlying_multigraph(d) for d in reps}) == 16
    assert verify_equivariant([vector_of(d) for d in reps], b)


def test_graph_form_basis_orbit_structure():
    b = connected_basis(3, 3)
    report = orbit_report(b, [vector_of(d) for d in graph_form_basis(b)])
    assert report.orbit_sizes() == [6, 6, 3, 1]
    assert report.incomplete_count == 0


def test_graph_form_basis_rejects_degenerate_spaces():
    with pytest.raises(ChordBasisError):
        graph_form_basis(connected_basis(2, 3))  # 13 graphs != dimension 9


def test_graph_form_matches_tree_basis_on_tree_case():
    b = connected_basis(3, 2)
    assert graph_form_basis(b) == tree_basis(2)


def test_equivariant_file_format():
    b = connected_basis(2, 2)
    vectors, history = equivariantize_m2(b)
    text = equivariant_to_text(vectors, 2, 2, history)
    assert text.startswith("equivariant-basis m=2 n=2 vectors=3")
    assert len(text.strip().splitlines()) == 4


@pytest.mark.parametrize("m,n", [(2, 4), (3, 4)])
def test_orbit_dichotomy_holds_on_larger_bases(m, n):
    # orbit_report raises internally if an incomplete orbit fails the
    # type I / type II expansion dichotomy
    report = orbit_report(connected_basis(m, n))
    assert report.incomplete_count >= 1
    for o in report.orbits:
        assert o.complete or o.types


@pytest.mark.parametrize("call", [
    lambda b, budget: orbit_report(b, budget=budget),
    lambda b, budget: equivariantize_m2(b, budget),
    lambda b, budget: equivariantize_greedy(b, budget),
    lambda b, budget: verify_equivariant([vector_of(d) for d in b.basis], b, budget),
    lambda b, budget: is_basis([vector_of(d) for d in b.basis], b, budget),
], ids=["orbit_report", "equivariantize_m2", "equivariantize_greedy",
        "verify_equivariant", "is_basis"])
def test_symmetry_stops_on_the_time_budget(call):
    b = connected_basis(2, 3)  # built before the budget runs out
    with pytest.raises(BudgetExceededError):
        call(b, Budget(time_budget=1e-9))


# -- the vector-list frame against the dense oracle ---------------------

def _scaled(v, k):
    return GeneralizedBasisVector(tuple((d, c * k) for d, c in v.terms))


def _dense_rank(coords, dim):
    return rref_dense(ExactMatrix(tuple(coords), dim)).rank


def _dense_solve(coords, target, dim):
    """x with sum_j x_j * coords[j] = target, from the RREF of [M^T | target]."""
    columns = [dict(c) for c in coords] + [dict(target)]
    rows = tuple(tuple((j, col[k]) for j, col in enumerate(columns) if k in col)
                 for k in range(dim))
    result = rref_dense(ExactMatrix(rows, dim + 1))
    assert result.pivots == tuple(range(dim))
    return [dict(row).get(dim, Fraction(0)) for row in result.matrix.rows]


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3)])
@pytest.mark.parametrize("start", ["basis-diagrams", "triangular"])
def test_frame_matches_the_dense_oracle(m, n, start):
    rng = random.Random(f"{m}-{n}-{start}")
    b = connected_basis(m, n)
    dim = len(b.basis)
    diagrams = b.diagram_set.diagrams
    vectors = [vector_of(d) for d in b.basis]
    if start == "triangular":
        # still a basis, but its coordinate matrix is not the identity
        vectors = [vector_sum(v, _scaled(w, rng.choice([-2, 1, 3])))
                   for v, w in zip(vectors, vectors[1:])] + vectors[-1:]

    def random_vector():
        terms = [_scaled(vector_of(rng.choice(diagrams)), rng.choice([-3, -1, 1, 2]))
                 for _ in range(rng.randint(1, 3))]
        v = terms[0]
        for t in terms[1:]:
            v = vector_sum(v, t)
        return v

    frame = _Frame(vectors, b)
    assert _dense_rank(frame.coords, dim) == dim
    outcomes = set()
    for _ in range(30):
        i = rng.randrange(dim)
        if rng.random() < 0.3:
            # a combination of two other vectors: the rank must drop
            j, k = rng.sample([x for x in range(dim) if x != i], 2)
            v = vector_sum(_scaled(frame.vectors[j], 2), _scaled(frame.vectors[k], -1))
        else:
            v = random_vector()
        new_coords = frame.coords[:i] + [class_coords(v, b)] + frame.coords[i + 1:]
        keeps = _dense_rank(new_coords, dim) == dim
        probe = class_coords(random_vector(), b)
        before = (list(frame.vectors), list(frame.coords), frame.solve(probe))
        assert frame.replace(i, v) is keeps
        outcomes.add(keeps)
        if not keeps:
            assert (frame.vectors, frame.coords, frame.solve(probe)) == before
        for _ in range(3):
            c = class_coords(random_vector(), b)
            assert frame.solve(c) == _dense_solve(frame.coords, c, dim)
    assert outcomes == {True, False}


# -- pinned artifact bytes ----------------------------------------------

def _orbits_text(m, n):
    return orbit_report_to_text(orbit_report(connected_basis(m, n)))


def _m2_text(n):
    vectors, rounds = equivariantize_m2(connected_basis(2, n))
    return equivariant_to_text(vectors, 2, n, rounds)


def _greedy_text(m, n):
    vectors, finished, rounds = equivariantize_greedy(connected_basis(m, n))
    return equivariant_to_text(vectors, m, n, rounds)


@pytest.mark.parametrize("make, args, digest", [
    (_orbits_text, (2, 3), "1e63884957c665251bf7e5fc7e75db1f52faf5b77a8825aa1aee3a0c01a8ddd4"),
    (_orbits_text, (3, 3), "00af4f0f43842af243c71a4094b7c9fb848c8d12f44376add665dde210a2dacb"),
    (_orbits_text, (2, 4), "fa97257fd5a5294c29bbadc1c0d2f66befbf283ea4a14690d312a49c8842f2b2"),
    (_orbits_text, (3, 4), "ca5e9b571feeffda58fa1513a8ad1a7d6a64d3320281c21b16da9484dd2bd07f"),
    (_orbits_text, (3, 5), "f82a61b5f0def6b565d9042b5dcc0bd5232b7f77444eb6fd42c6e15420daab85"),
    # rounds 1,0
    (_m2_text, (3,), "9b219e3e3aaebdae44ca9f053b272e2e1654230a79cdd92aabd7679162f4ba32"),
    # rounds 5,3,2,1,0 with one stuck-orbit move
    (_m2_text, (4,), "97928062a46697e7720523bd7d6f3962295f1413f4355dc29c02e81ed215ed52"),
    # unfinished: rounds 22,16,10
    (_greedy_text, (3, 4), "c876df61b1aa7023c2001bede398175301755fca3c18aa7e909055647a2a45e5"),
], ids=["orbits-2-3", "orbits-3-3", "orbits-2-4", "orbits-3-4", "orbits-3-5",
        "m2-3", "m2-4", "greedy-3-4"])
def test_symmetry_artifact_bytes_are_pinned(make, args, digest):
    assert content_digest(make(*args)) == "sha256:" + digest
