import sys
import time
from fractions import Fraction
from math import comb

import pytest

from chordbasis import basis as B
from chordbasis import cli, relations
from chordbasis.basis import (
    REFERENCE_A_DIMS,
    REFERENCE_C_DIMS,
    basis_from_text,
    basis_to_text,
    binomial_departures,
    block_dims,
    clear_memo,
    connected_basis,
    dim_A,
    dim_C,
    dim_U,
    dim_table_A,
    dim_table_C,
    eval_A_polynomial,
    express,
    format_dimension_table,
    full_basis,
    polynomial_discrepancies,
    quotient,
)
from chordbasis.budget import Budget
from chordbasis.cache import content_digest
from chordbasis.diagrams import active_starts, diagram
from chordbasis.errors import BudgetExceededError, ChordBasisError, DiagramError


def test_connected_dimensions_small():
    assert dim_C(1, 1) == 1
    assert dim_C(2, 3) == 9
    assert dim_C(3, 3) == 16


# U(m, n): the connected space modulo the four-term and one-term relations
UNFRAMED_DIMS = {
    (1, 1): 0, (1, 2): 1, (1, 3): 1, (1, 4): 3, (1, 5): 4,
    (2, 1): 1, (2, 2): 1, (2, 3): 4, (2, 4): 7, (2, 5): 20,
    (3, 2): 3, (3, 3): 7, (3, 4): 28, (3, 5): 73,
    (4, 3): 16, (4, 4): 63, (4, 5): 287,
    (5, 4): 125, (5, 5): 722, (6, 5): 1296,
}


@pytest.mark.parametrize("m, n", [(m, n) for n in range(1, 6) for m in range(1, n + 2)]
                         + [(1, 6), (2, 6)])
def test_connected_dimension_by_the_splitting_and_by_the_direct_quotient(m, n):
    clear_memo()
    split = dim_C(m, n)
    assert quotient(m, n).dimension == split
    assert split == REFERENCE_C_DIMS.get((m, n)) or split == {(1, 6): 19, (2, 6): 128}[(m, n)]
    if n <= 5:
        assert dim_U(m, n) == UNFRAMED_DIMS[(m, n)]  # a memo hit
    clear_memo()


def test_unframed_dimension_conventions_without_enumeration():
    clear_memo()
    assert dim_U(1, 0) == 1 and dim_U(3, 1) == 0
    assert not B._MEMO


def test_boundary_conventions_without_enumeration():
    assert dim_C(4, 2) == 0
    assert dim_C(1, 0) == 1
    assert dim_C(5, 1) == 0


def test_connected_basis_structure():
    b = connected_basis(1, 3)
    assert len(b.basis) == 3
    assert len(b.pivots) == 2
    assert len(b.basis) + len(b.pivots) == len(b.diagram_set)
    for pivot_diag, expr in b.expressions.items():
        assert pivot_diag not in b.basis
        assert expr, "three-chord pivots expand nontrivially"
        for diag, coef in expr:
            assert diag in b.basis
            assert coef.denominator == 1  # integer in this instance


def test_relations_vanish_under_expressions():
    from chordbasis.enumeration import enumerate_connected
    from chordbasis.relations import generate_relations

    b = connected_basis(2, 2)
    ds = b.diagram_set
    for row in generate_relations(ds):
        acc = {}
        for idx, coef in row.coeffs:
            for diag, c2 in express(ds.diagrams[idx], b).items():
                acc[diag] = acc.get(diag, Fraction(0)) + coef * c2
        assert all(v == 0 for v in acc.values())


def test_express_unit_on_basis_member():
    b = connected_basis(2, 2)
    d = b.basis[0]
    assert express(d, b) == {d: Fraction(1)}


def test_express_rejects_unknown_diagram():
    b = connected_basis(2, 2)
    with pytest.raises(DiagramError):
        express(diagram("0|0"), b)


def test_express_is_linear_on_relations():
    # any relation row maps to zero, so express respects the quotient
    b = connected_basis(1, 3)
    exprs = [express(d, b) for d in b.diagram_set.diagrams]
    assert all(isinstance(e, dict) for e in exprs)


def test_dim_A_examples():
    assert dim_A(2, 2, REFERENCE_C_DIMS) == 8
    assert dim_A(3, 0, REFERENCE_C_DIMS) == 1
    assert dim_A(5, 0, REFERENCE_C_DIMS) == 1
    assert dim_A(1, 4, REFERENCE_C_DIMS) == 6


def test_dim_A_from_live_table():
    table = dim_table_C(3, 4)
    assert dim_A(3, 3, table) == 80
    assert dim_A(4, 3, table) == 270  # formula value; see acceptance notes


def test_dim_A_recursion_crosscheck():
    # independent route: recurse on the component containing circle 0
    from math import comb

    def by_recursion(m, n):
        if m == 0:
            return 1 if n == 0 else 0
        total = 0
        for r in range(1, m + 1):
            for s in range(0, n + 1):
                c = REFERENCE_C_DIMS.get((r, s), 1 if (r, s) == (1, 0) else 0)
                if s < r - 1:
                    c = 0
                if not c:
                    continue
                total += comb(m - 1, r - 1) * c * by_recursion(m - r, n - s)
        return total

    for m in range(1, 7):
        for n in range(0, 6):
            assert dim_A(m, n, REFERENCE_C_DIMS) == by_recursion(m, n)


def test_dim_A_missing_table_entries():
    with pytest.raises(ChordBasisError):
        dim_A(4, 4, {(1, 1): 1})


def test_full_basis_two_circles_one_chord():
    out = full_basis(2, 1)
    assert {str(d) for d in out} == {"0|0", "00|", "|00"}
    assert out == sorted(out)
    assert len(out) == dim_A(2, 1, REFERENCE_C_DIMS) == 3


def test_full_basis_three_circles_one_chord():
    out = full_basis(3, 1)
    assert len(out) == 6 == dim_A(3, 1, REFERENCE_C_DIMS)


def test_full_basis_single_circle_matches_connected():
    assert full_basis(1, 3) == sorted(connected_basis(1, 3).basis)


@pytest.mark.parametrize("m,n", [(1, 0), (2, 0), (3, 0), (4, 0), (2, 2), (3, 2),
                                 (2, 3), (3, 3), (4, 2), (2, 4)])
def test_full_basis_count_equals_dimension(m, n):
    out = full_basis(m, n)
    assert len(out) == dim_A(m, n, REFERENCE_C_DIMS)
    assert len(set(out)) == len(out)
    if n == 0:  # the one bare diagram on m circles
        assert [str(d) for d in out] == ["|" * (m - 1)]


def test_full_basis_stops_on_a_spent_time_budget():
    budget = Budget(time_budget=1e-9)
    time.sleep(0.01)
    with pytest.raises(BudgetExceededError):
        full_basis(6, 4, budget=budget)


def test_polynomials_low_order():
    assert eval_A_polynomial(1, 6) == 21
    assert eval_A_polynomial(2, 4) == 59
    assert eval_A_polynomial(3, 1) == 3
    with pytest.raises(ChordBasisError):
        eval_A_polynomial(6, 1)


def test_binomial_departures_against_the_block_dimensions():
    # the formula's D_k are the ranks of the active sets; the forms for
    # n <= 2 agree with it, those for n = 3, 4 first depart on four circles
    assert binomial_departures() == [(3, 4, 58, 52), (4, 4, 381, 339),
                                     (5, 1, Fraction(-21575, 192), 10)]
    assert block_dims(3, k_max=4)[4] == 52


def test_polynomial_discrepancy_cells_are_pinned():
    # the published closed forms disagree with the component-decomposition
    # formula exactly here; the formula is authoritative
    cells = {(n, m) for n, m, _, _ in polynomial_discrepancies()}
    assert cells == (
        {(3, m) for m in (4, 5, 6)}
        | {(4, m) for m in (4, 5, 6)}
        | {(5, m) for m in range(1, 7)}
    )


def test_published_full_table_disagrees_at_nine_cells():
    cells = {
        (m, n)
        for n in range(1, 6)
        for m in range(1, 7)
        if dim_A(m, n, REFERENCE_C_DIMS) != REFERENCE_A_DIMS[(m, n)]
    }
    assert cells == {(m, n) for m in (4, 5, 6) for n in (3, 4, 5)}


def test_dimension_table_text_format():
    table = dim_table_C(2, 3)
    text = format_dimension_table(table, "C")
    lines = text.splitlines()
    assert lines[0].split() == ["n\\m", "1", "2", "3", "total"]
    assert lines[1].split() == ["1", "1", "1", "2"]
    assert lines[2].split() == ["2", "2", "3", "3", "8"]


def test_dimension_table_csv_format():
    table = dim_table_C(2, 3)
    text = format_dimension_table(table, "C", csv=True)
    assert text.splitlines()[1] == "1,1,1,,2"


def test_dimension_table_A():
    c = dim_table_C(2, 3)
    a = dim_table_A(2, 3, c)
    assert a[(3, 2)] == 24
    assert format_dimension_table(a, "A").splitlines()[0].split() == ["n\\m", "1", "2", "3"]


def test_bundled_provenance_recorded(monkeypatch):
    # published values stand in for the bundled row; every other row is live
    bundled = {(1, 2): 20, (2, 2): 30, (3, 2): 40}
    monkeypatch.setattr(B, "REFERENCE_C_DIMS", {**REFERENCE_C_DIMS, **bundled})
    table = dim_table_C(3, 4, bundled_n=(2,))
    assert {k: v for k, v in table.items() if k[1] == 2} == {**bundled, (4, 2): 0}
    assert {k: v for k, v in table.items() if k[1] != 2} == {
        (m, n): dim_C(m, n) for n in (1, 3) for m in range(1, 5)}


def test_basis_file_format():
    b = connected_basis(1, 3)
    text = basis_to_text(b)
    lines = text.splitlines()
    assert lines[0].startswith("basis m=1 n=3 dim=3 count=5")
    assert "pivot-expressions" in lines
    tail = lines[lines.index("pivot-expressions") + 1:]
    assert len(tail) == 2
    assert all("=" in line for line in tail)


@pytest.mark.parametrize("m, n", [(m, n) for n in range(5) for m in range(1, n + 2)]
                         + [(2, 0), (3, 1)])
def test_basis_file_reader_round_trips(m, n):
    b = connected_basis(m, n)
    text = basis_to_text(b)
    read = basis_from_text(text)
    assert basis_to_text(read) == text
    assert (read.diagram_set, read.pivots, read.basis) == (b.diagram_set, b.pivots, b.basis)
    assert dict(read.expressions) == dict(b.expressions)


def test_partition_compositions_structure():
    from chordbasis.basis import partition_compositions

    pcs = list(partition_compositions(3, 2))
    for pc in pcs:
        covered = sorted(c for part in pc.parts for c in part)
        assert covered == [0, 1, 2]
        mins = [part[0] for part in pc.parts]
        assert mins == sorted(mins)
        assert sum(pc.chords) == 2
        assert all(n >= len(p) - 1 for p, n in zip(pc.parts, pc.chords))
    # one-block partitions appear once with everything on them
    assert any(pc.parts == ((0, 1, 2),) and pc.chords == (2,) for pc in pcs)


def test_partition_compositions_equal_the_filtered_walk():
    from chordbasis.basis import _set_partitions, partition_compositions
    from chordbasis.enumeration import _compositions

    for m in range(1, 7):
        for n in range(0, 5):
            walked = [(tuple(tuple(p) for p in partition), chords)
                      for partition in _set_partitions(list(range(m)))
                      for chords in _compositions(n, len(partition), 0)
                      if all(ni >= len(p) - 1 for p, ni in zip(partition, chords))]
            assert [tuple(pc) for pc in partition_compositions(m, n)] == walked
    # a part of r circles needs r - 1 chords: with one chord on ten circles,
    # ten singleton partitions and 45 with one pair
    assert len(list(partition_compositions(10, 1))) == 55
    assert len(full_basis(10, 1)) == 55


def test_full_dimension_by_direct_rank_computation():
    # fully independent route for the full space: enumerate every diagram
    # (connected or not), generate all relation rows, take the exact rank;
    # this arbitrates the published-table mismatch at (4, 3), and is the
    # oracle of the block sum verify ranks by
    from chordbasis.enumeration import enumerate_all
    from chordbasis.exactla import assemble, pivot_columns
    from chordbasis.relations import generate_relations
    from chordbasis.verify import _direct_dim_A

    for m, n, expected in [(2, 2, 8), (3, 3, 80), (4, 3, 270), (3, 4, 241)]:
        ds = enumerate_all(m, n)
        rank = len(pivot_columns(assemble(generate_relations(ds), len(ds))))
        assert len(ds) - rank == expected
        assert len(ds) - rank == dim_A(m, n, REFERENCE_C_DIMS)
        if (m, n) in ((4, 3), (3, 4)):
            assert _direct_dim_A(m, n) == expected


def test_block_dims_are_the_binomial_coefficients_of_the_full_dimension():
    assert block_dims(0) == [1]
    assert block_dims(3) == [0, 3, 13, 32, 52, 45, 15]
    assert block_dims(4) == [0, 6, 32, 127, 339, 615, 690, 420, 105]
    assert block_dims(4, 3) == [0, 6, 32, 127]
    for n in range(5):
        dims = block_dims(n)
        assert len(dims) == 2 * n + 1
        for m in range(1, 2 * n + 4):
            assert (sum(comb(m, k) * d for k, d in enumerate(dims))
                    == dim_A(m, n, REFERENCE_C_DIMS))
    with pytest.raises(DiagramError):
        block_dims(-1)


@pytest.mark.parametrize("m, n, digest", [
    (3, 5, "d1d2b6e2a935cf89124ea727e65fe4184f9443c52c6f4247b585e06d0fd3550c"),
    (1, 6, "0f3e06437a34f8a547c37f362cf8829b9c5334fc56cd2e7539bd150bb3e9ffff"),
])
def test_basis_file_bytes_are_pinned(m, n, digest):
    # the basis, its pivots and every expression are a function of the row
    # space alone, whichever spanning rows the elimination is given
    assert content_digest(basis_to_text(connected_basis(m, n))) == "sha256:" + digest


def test_full_dimension_dominates_connected_dimension():
    for (m, n), c in REFERENCE_C_DIMS.items():
        assert dim_A(m, n, REFERENCE_C_DIMS) >= c


def _count_calls(monkeypatch, modules, name, real):
    """Replace ``name`` in each module by a wrapper that records the
    positional arguments of every call; ``raising=False`` lets a module that
    lacks the name be patched too, so a second copy of the pipeline there
    would be counted."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting, raising=False)
    return calls


def test_memo_hit_is_charged_to_the_budget(monkeypatch):
    calls = _count_calls(monkeypatch, [B], "enumerate_connected",
                         B.enumerate_connected)
    clear_memo()
    assert quotient(2, 3).dimension == 9
    with pytest.raises(BudgetExceededError):
        quotient(2, 3, budget=Budget(max_candidates=10))
    with pytest.raises(BudgetExceededError):
        quotient(2, 3, budget=Budget(max_matrix_cells=1))
    warm = Budget()
    assert quotient(2, 3, budget=warm).dimension == 9
    assert warm.candidates_used == 5 * 15  # feet-count vectors x matchings
    assert calls == [(2, 3)]  # enumerated once, by the first call
    # dim_C's U quotients are memoized and charged the same way
    assert dim_C(2, 3) == 9
    with pytest.raises(BudgetExceededError):
        dim_C(2, 3, budget=Budget(max_candidates=10))
    with pytest.raises(BudgetExceededError):
        dim_C(2, 3, budget=Budget(max_matrix_cells=1))
    warm = Budget()
    assert dim_C(2, 3, budget=warm) == 9
    assert warm.candidates_used == 5 * 15 + 3 * 3 + 1 * 1  # U(2,3), U(2,2), U(2,1)
    assert warm.paid == {(2, s, "unframed") for s in (1, 2, 3)}


def test_memo_holds_no_orbit_images():
    # enumeration's orbit maps serve the rows alone; the memoized set is
    # the set and nothing more
    from chordbasis.enumeration import enumerate_connected

    assert enumerate_connected(2, 4)._images  # what the rows are built from
    clear_memo()
    for connected in (True, False):
        quotient(2, 4, connected=connected)
        ds = B._MEMO[(2, 4, connected)].diagram_set
        assert ds._images is None
        # a lookup asked of the released set builds maps afresh, not kept
        rep = ds.diagrams[-1].rep
        assert ds.term_feet()(rep.feet, active_starts(rep.starts), 0) == (rep.feet, 0)
        assert ds._images is None


def test_no_term_lookup_keeps_released_orbit_maps_alive(monkeypatch):
    maps = []

    def relate(ds, **kwargs):
        maps.append(ds._images)
        return relations.relation_classes(ds, **kwargs)

    monkeypatch.setattr(B, "relation_classes", relate)
    clear_memo()
    quotient(2, 4)
    # quotient has released the maps its rows were built from, and only
    # this list still refers to them (the count includes the argument)
    refs = sys.getrefcount(maps[0])
    assert maps[0] and refs == 2


def test_a_budget_pays_for_each_quotient_once():
    clear_memo()
    budget = Budget()
    b = connected_basis(2, 4, budget)
    paid = budget.candidates_used
    assert paid > 0
    assert connected_basis(2, 4, budget) is b
    assert budget.candidates_used == paid
    # a fresh budget on the warm memo pays in full
    fresh = Budget()
    connected_basis(2, 4, fresh)
    assert fresh.candidates_used == paid


def test_relation_rows_generated_once_per_instance(monkeypatch, tmp_path):
    calls = []

    def counting(entry):
        real = getattr(relations, entry)

        def count(ds, *args, **kwargs):
            calls.append((ds.m, ds.n, entry))
            return real(ds, *args, **kwargs)

        return count

    for module in (B, cli):
        monkeypatch.setattr(module, "generate_relations", counting("generate_relations"))
    monkeypatch.setattr(B, "relation_classes", counting("relation_classes"))
    clear_memo()
    assert cli.main(["--cache", str(tmp_path / "cache"), "basis", "3", "4"]) == 0
    # a cold basis relates the full list once: the quotient eliminates it,
    # and the relations file records it
    assert calls == [(3, 4, "generate_relations")]
    calls.clear()
    clear_memo()
    assert quotient(2, 4, budget=Budget()).dimension == 22
    assert calls == [(2, 4, "relation_classes")]
    calls.clear()
    # dim_C relates each of its U quotients once
    assert dim_C(2, 4, budget=Budget()) == 22
    assert calls == [(2, s, "relation_classes") for s in (4, 3, 2, 1)]
    calls.clear()
    assert quotient(2, 4, budget=Budget()).dimension == 22
    assert dim_C(2, 4, budget=Budget()) == 22
    assert connected_basis(2, 4).dimension == 22
    assert calls == []  # a memo hit builds no rows


def test_cell_cap_counts_distinct_rows():
    # connected (2,5): 533 diagrams, 8540 nonzero four-term rows of which
    # 1858 are distinct up to sign; 2e6 cells lie between the two
    assert 1858 * 533 < 2_000_000 < 8540 * 533
    clear_memo()
    for _ in ("cold", "memo hit"):
        assert dim_C(2, 5, budget=Budget(max_matrix_cells=2_000_000)) == 55
        assert B.quotient(2, 5).cells == (1858, 533)
    clear_memo()
    for _ in ("cold", "memo hit"):
        with pytest.raises(BudgetExceededError):
            dim_C(2, 5, budget=Budget(max_matrix_cells=1))
        assert B.quotient(2, 5).dimension == 55
