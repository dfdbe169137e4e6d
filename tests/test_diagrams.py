import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chordbasis.diagrams import (
    ChordDiagram,
    CirclePartition,
    StringRep,
    canonical_feet,
    canonical_feet_bruteforce,
    canonicalize,
    circle_owners,
    components,
    component_chord_counts,
    diagram,
    disjoint_union,
    format_rep,
    full_subdiagram,
    is_connected,
    orbit,
    parse,
    permute_circles,
    relabel,
)
from chordbasis.basis import clear_memo, connected_basis, dim_C
from chordbasis.enumeration import enumerate_all
from chordbasis.errors import DiagramError
from chordbasis.symmetry import equivariantize_m2, orbit_report, tree_basis


# -- strategies ---------------------------------------------------------

@st.composite
def string_reps(draw, max_m=4, max_n=5):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(0, max_n))
    feet = [c for c in range(n) for _ in (0, 1)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    rng.shuffle(feet)
    cuts = sorted(rng.randint(0, 2 * n) for _ in range(m - 1))
    return StringRep(tuple(feet), tuple([0] + cuts + [2 * n]))


def scrambled(rep, seed):
    rng = random.Random(seed)
    relabel = list(range(rep.n))
    rng.shuffle(relabel)
    blocks = []
    for b in rep.blocks():
        if b:
            r = rng.randrange(len(b))
            b = b[r:] + b[:r]
        blocks.append(tuple(relabel[c] for c in b))
    return StringRep(tuple(c for b in blocks for c in b), rep.starts)


# -- parsing and formatting --------------------------------------------

def test_parse_known_string():
    rep = parse("0121|20")
    assert rep.feet == (0, 1, 2, 1, 2, 0)
    assert rep.starts == (0, 4, 6)


def test_parse_empty_is_one_bare_circle():
    rep = parse("")
    assert rep.m == 1 and rep.n == 0
    assert rep.feet == () and rep.starts == (0, 0)


def test_parse_direct_transcription():
    rep = parse("012|012")
    assert rep.feet == (0, 1, 2, 0, 1, 2)
    assert rep.starts == (0, 3, 6)


def test_parse_trailing_empty_circle():
    rep = parse("00|")
    assert rep.m == 2
    assert rep.blocks() == [(0, 0), ()]


def test_parse_comma_form():
    labels = ",".join(str(c) for c in range(11))
    rep = parse(labels + "|" + labels)
    assert rep.n == 11
    assert rep.feet[:3] == (0, 1, 2) and rep.feet[10] == 10
    assert "," in format_rep(rep)


def test_parse_rejects_bad_label_counts():
    with pytest.raises(DiagramError):
        parse("01|01|22|2")  # label 2 occurs three times
    with pytest.raises(DiagramError):
        parse("001")
    with pytest.raises(DiagramError):
        parse("0x1")


def test_format_roundtrip_multi_digit():
    feet = tuple([c for c in range(11) for _ in (0, 1)])
    rep = StringRep(feet, (0, len(feet)))
    assert parse(format_rep(rep)) == rep


@settings(max_examples=200)
@given(string_reps())
def test_parse_format_roundtrip(rep):
    assert parse(format_rep(rep)) == rep


# -- canonical form -----------------------------------------------------

def test_known_equal_strings_share_canonical_form():
    forms = {str(diagram(s)) for s in ("0121|20", "1020|21", "1012|20", "0102|12")}
    assert forms == {"0102|12"}


def test_already_minimal():
    assert str(diagram("0011")) == "0011"


def test_rotation_relabel_minimum():
    assert str(diagram("1100")) == "0011"


@settings(max_examples=300)
@given(string_reps(), st.integers(0, 2**32))
def test_canonical_invariant_under_scrambling(rep, seed):
    assert canonicalize(rep) == canonicalize(scrambled(rep, seed))


@settings(max_examples=300)
@given(string_reps())
def test_canonical_idempotent(rep):
    c = canonicalize(rep)
    assert canonicalize(c.rep) == c


@settings(max_examples=300)
@given(string_reps())
def test_canonicalize_matches_bruteforce_oracle(rep):
    oracle = canonical_feet_bruteforce(rep.feet, rep.starts)
    assert canonical_feet(rep.feet, rep.starts) == oracle
    assert canonicalize(rep).rep.feet == oracle
    assert min(orbit(rep.feet, rep.starts)) == oracle


def test_production_never_runs_the_bruteforce_oracle(monkeypatch):
    def refuse(feet, starts):
        raise AssertionError("the brute-force canonical form is an oracle only")

    # every binding of the function object, under whatever name
    for module in list(sys.modules.values()):
        if not module.__name__.startswith("chordbasis"):
            continue
        for name, value in list(vars(module).items()):
            if value is canonical_feet_bruteforce:
                monkeypatch.setattr(module, name, refuse)
    clear_memo()  # so the pipeline below really enumerates and relates
    assert str(diagram("0121|20")) == "0102|12"
    assert len(enumerate_all(2, 2)) == 8
    assert dim_C(3, 3) == 16
    b = connected_basis(2, 3)
    assert orbit_report(b).incomplete_count == 1
    vectors, _ = equivariantize_m2(b)
    assert len(vectors) == 9
    d = disjoint_union([(diagram("0011"), [1]), (diagram("00"), [0])])
    assert str(d) == "00|1122"
    assert str(full_subdiagram(d, [1])) == "0011"
    assert len(tree_basis(3)) == 16


@settings(max_examples=100)
@given(string_reps())
def test_circle_owners_and_relabel(rep):
    assert circle_owners(rep.starts) == [rep.circle_of(p) for p in range(len(rep.feet))]
    # renumbering leaves the diagram, and so its canonical form, unchanged
    assert canonical_feet(relabel(rep.feet), rep.starts) == canonical_feet(rep.feet, rep.starts)
    assert relabel((3, 1, 3, 0, 1, 0)) == (0, 1, 0, 2, 1, 2)


def test_total_order_key():
    a, b = diagram("0011"), diagram("0101")
    assert a < b
    assert diagram("0|0") < diagram("00|")  # starts compared before feet


# -- group action -------------------------------------------------------

def test_permute_blocks_then_canonicalize():
    d = diagram("01|0122")
    assert str(permute_circles(d, (1, 0))) == "0012|12"


def test_identity_action():
    d = diagram("0102|12")
    assert permute_circles(d, (0, 1)) == d


def test_orbit_size_divides_group_order():
    d = diagram("0102|12")
    orbit = {permute_circles(d, s) for s in [(0, 1), (1, 0)]}
    assert len(orbit) in (1, 2)


@settings(max_examples=150)
@given(string_reps(max_m=4, max_n=4), st.integers(0, 10**6), st.integers(0, 10**6))
def test_action_composition_law(rep, s1, s2):
    d = canonicalize(rep)
    m = d.m
    perms = sorted(__import__("itertools").permutations(range(m)))
    sigma = perms[s1 % len(perms)]
    tau = perms[s2 % len(perms)]
    composed = tuple(sigma[tau[i]] for i in range(m))
    assert permute_circles(permute_circles(d, tau), sigma) == permute_circles(d, composed)


def test_permute_rejects_non_bijection():
    with pytest.raises(DiagramError):
        permute_circles(diagram("0|0"), (0, 0))


# -- connectivity -------------------------------------------------------

def test_components_disconnected():
    part = components(parse("0011|22"))
    assert part.classes() == ((0,), (1,))


def test_components_connected():
    assert components(parse("0102|12")).classes() == ((0, 1),)


def test_component_ids_ordered_by_lowest_member():
    part = components(parse("00|12|12|33"))
    assert part.assignment == (0, 1, 1, 2)
    assert isinstance(part, CirclePartition)


def test_component_chord_counts():
    rep = parse("00|12|12|33")
    assert component_chord_counts(rep) == (1, 2, 1)


def test_is_connected_examples():
    assert is_connected(diagram("0102|12"))
    assert not is_connected(diagram("0011|22"))
    assert is_connected(diagram("001122"))  # single circle


@settings(max_examples=150)
@given(string_reps())
def test_components_invariant_under_canonicalization(rep):
    assert components(rep).classes() == components(canonicalize(rep).rep).classes()


# -- disjoint union and full subdiagrams --------------------------------

def test_disjoint_union_two_loops():
    loop = diagram("00")
    assert str(disjoint_union([(loop, [0]), (loop, [1])])) == "00|11"


def test_disjoint_union_single_part_identity():
    d = diagram("0102|12")
    assert disjoint_union([(d, [0, 1])]) == d


def test_disjoint_union_with_empty_circle():
    assert str(disjoint_union([(diagram("00"), [0]), (diagram(""), [1])])) == "00|"


def test_disjoint_union_rejects_bad_targets():
    with pytest.raises(DiagramError):
        disjoint_union([(diagram("00"), [0]), (diagram("00"), [0])])
    with pytest.raises(DiagramError):
        disjoint_union([(diagram("00"), [1])])


def test_restriction_recovers_parts():
    a = diagram("0101")
    b = diagram("0|0")
    union = disjoint_union([(a, [1]), (b, [0, 2])])
    assert full_subdiagram(union, [1]) == a
    assert full_subdiagram(union, [0, 2]) == b


@settings(max_examples=100)
@given(string_reps(max_m=2, max_n=3), string_reps(max_m=2, max_n=2))
def test_disjoint_union_restriction_roundtrip(rep1, rep2):
    d1, d2 = canonicalize(rep1), canonicalize(rep2)
    targets1 = list(range(d1.m))
    targets2 = list(range(d1.m, d1.m + d2.m))
    union = disjoint_union([(d1, targets1), (d2, targets2)])
    assert full_subdiagram(union, targets1) == d1
    assert full_subdiagram(union, targets2) == d2


def test_chord_diagram_str_is_parsable():
    d = diagram("0121|20")
    assert diagram(str(d)) == d


@settings(max_examples=100)
@given(string_reps(max_m=4, max_n=4), st.integers(0, 10**6))
def test_components_equivariant_under_circle_relabelling(rep, pick):
    d = canonicalize(rep)
    perms = sorted(__import__("itertools").permutations(range(d.m)))
    sigma = perms[pick % len(perms)]
    image = permute_circles(d, sigma)
    before = components(d.rep).classes()
    after = components(image.rep).classes()
    relabelled = sorted(tuple(sorted(sigma[c] for c in cls)) for cls in before)
    assert sorted(after) == relabelled
