import random
import subprocess
import sys
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from chordbasis.diagrams import (
    ChordDiagram,
    StringRep,
    canonical_feet,
    canonical_feet_bruteforce,
    canonicalize,
    chord_circles,
    circle_owners,
    components,
    diagram,
    disjoint_union,
    format_rep,
    is_connected,
    isolated_chord_test,
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


@settings(max_examples=100)
@given(string_reps())
def test_orbit_maps_each_image_to_a_rotation_that_gives_it(rep):
    members = orbit(rep.feet, rep.starts)
    again = orbit(canonicalize(rep).rep.feet, rep.starts)
    assert members.keys() == again.keys()
    for image, rotation in members.items():
        assert sorted(rotation) == list(range(len(rep.feet)))
        assert relabel([rep.feet[q] for q in rotation]) == image
        # the position maps of one starts tuple are shared, not made per image
        assert any(rotation is other for other in again.values())


TIE_HEAVY_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from chordbasis.diagrams import diagram
print(diagram(sys.argv[1]))
"""


@pytest.mark.parametrize("text", [
    "|".join(f"{2 * i},{2 * i + 1},{2 * i},{2 * i + 1}" for i in range(40)),
    "|".join(f"{i},{i}" for i in range(40)),
], ids=["abab-circles", "self-chord-circles"])
def test_canonical_form_of_tie_heavy_circles_is_cheap(text):
    # every rotation of every circle ties; kept branches that agree on the
    # chords still open merge, so 40 circles stay one branch
    proc = subprocess.run([sys.executable, "-c", TIE_HEAVY_CHILD, text],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == text + "\n"  # already canonical


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
    assert len(tree_basis(3)) == 16


@settings(max_examples=100)
@given(string_reps())
def test_circle_owners_and_relabel(rep):
    assert circle_owners(rep.starts) == [bisect_right(rep.starts, p) - 1
                                         for p in range(len(rep.feet))]
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

def masks_of(rep):
    return chord_circles(rep.feet, circle_owners(rep.starts))


def classes(rep):
    """The components of ``rep`` as tuples of circles."""
    return [tuple(i for i in range(rep.m) if part >> i & 1)
            for part in components(masks_of(rep), rep.m)]


def test_components_disconnected():
    assert classes(parse("0011|22")) == [(0,), (1,)]


def test_components_connected():
    assert classes(parse("0102|12")) == [(0, 1)]


def test_component_ids_ordered_by_lowest_member():
    assert list(components(masks_of(parse("00|12|12|33")), 4)) == [0b0001, 0b0110, 0b1000]
    assert classes(parse("12|00|33|12")) == [(0, 3), (1,), (2,)]


def test_component_chord_counts():
    rep = parse("00|12|12|33")
    masks = masks_of(rep)
    assert masks == [0b0001, 0b0110, 0b0110, 0b1000]
    counts = [sum(1 for mask in masks if mask & part) for part in components(masks, 4)]
    assert counts == [1, 2, 1]


def test_is_connected_examples():
    assert is_connected(diagram("0102|12"))
    assert not is_connected(diagram("0011|22"))
    assert is_connected(diagram("001122"))  # single circle
    assert is_connected(parse(""))  # one bare circle
    assert not is_connected(parse("00|"))


def _components_by_search(rep):
    """The components as tuples of circles, in order of lowest circle, by a
    depth-first search over circles that share a chord."""
    blocks = [set(b) for b in rep.blocks()]
    seen: set[int] = set()
    out = []
    for root in range(rep.m):
        if root in seen:
            continue
        seen.add(root)
        stack, part = [root], [root]
        while stack:
            here = stack.pop()
            for there in range(rep.m):
                if there not in seen and blocks[here] & blocks[there]:
                    seen.add(there)
                    stack.append(there)
                    part.append(there)
        out.append(tuple(sorted(part)))
    return out


@settings(max_examples=300)
@given(string_reps(max_m=6, max_n=5))
@example(parse("|00||1|1|"))  # bare circles and a self-chord
@example(parse("0|0|1212"))
def test_components_match_a_search_over_the_blocks(rep):
    expected = _components_by_search(rep)
    assert classes(rep) == expected
    assert is_connected(rep) == (len(expected) == 1)
    masks = masks_of(rep)
    counts = [sum(1 for mask in masks if mask & part) for part in components(masks, rep.m)]
    assert sum(counts) == rep.n


@settings(max_examples=150)
@given(string_reps())
def test_components_invariant_under_canonicalization(rep):
    assert classes(rep) == classes(canonicalize(rep).rep)


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
    union = disjoint_union([(diagram("0101"), [1]), (diagram("0|0"), [0, 2])])
    assert str(union) == "0|1212|0"


@settings(max_examples=100)
@given(string_reps(max_m=2, max_n=3), string_reps(max_m=2, max_n=2))
def test_disjoint_union_restriction_roundtrip(rep1, rep2):
    d1, d2 = canonicalize(rep1), canonicalize(rep2)
    targets1 = list(range(d1.m))
    targets2 = list(range(d1.m, d1.m + d2.m))
    union = disjoint_union([(d1, targets1), (d2, targets2)])
    shifted = [[c + d1.n for c in block] for block in d2.rep.blocks()]
    assert union == canonicalize(StringRep.from_blocks(d1.rep.blocks() + shifted))


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
    before = classes(d.rep)
    after = classes(image.rep)
    relabelled = sorted(tuple(sorted(sigma[c] for c in cls)) for cls in before)
    assert sorted(after) == relabelled


def _isolated_by_hand(feet, starts):
    """True iff some circle holds the two feet of one chord next to each
    other, reading the circle cyclically."""
    for lo, hi in zip(starts, starts[1:]):
        block = feet[lo:hi]
        if len(block) >= 2 and any(block[k] == block[k - 1] for k in range(len(block))):
            return True
    return False


@pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 3), (2, 4)])
def test_isolated_chord_test_matches_a_scan_of_every_circle(m, n):
    # every rotation of every diagram, two-foot circles and one-pair starts
    # included; isolation is the same on every image of an orbit
    for d in enumerate_all(m, n):
        starts = d.rep.starts
        if all(hi - lo < 2 for lo, hi in zip(starts, starts[1:])):
            continue  # no circle with two feet, so no pair to compare
        test = isolated_chord_test(starts)
        expected = _isolated_by_hand(d.rep.feet, starts)
        for image in orbit(d.rep.feet, starts):
            assert test(image) == _isolated_by_hand(image, starts) == expected
