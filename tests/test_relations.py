import collections
import dataclasses
import itertools
import sys
import time

import pytest

from chordbasis import enumeration, relations
from chordbasis.basis import clear_memo, quotient
from chordbasis.budget import Budget
from chordbasis.cache import content_digest
from chordbasis.diagrams import canonical_feet, diagram, isolated_chord_test, orbit, relabel
from chordbasis.enumeration import DiagramSet, enumerate_all, enumerate_connected
from chordbasis.errors import BudgetExceededError, ChordBasisError, DiagramError
from chordbasis.exactla import assemble, pivot_columns, rref
from chordbasis.relations import (
    Relation,
    _adjacent_pairs,
    check_component_preservation,
    generate_relations,
    relation_classes,
    relations_from_text,
    relations_to_text,
)


def _labelled(ds):
    """Every generated row with the fields of its provenance line, read back
    from the written relations file."""
    rows = generate_relations(ds)
    labels = [dict(field.split("=", 1) for field in line[2:].split())
              for line in relations_to_text(ds, rows).splitlines()
              if line.startswith("# ")]
    assert len(labels) == len(rows)
    return list(zip(labels, rows))


def test_two_chords_one_circle_all_rows_cancel():
    ds = enumerate_connected(1, 2)
    rows = generate_relations(ds)
    assert rows, "adjacent distinct pairs exist, so raw rows are emitted"
    assert all(r.is_zero() for r in rows)


def test_three_chords_one_circle_rank_two():
    ds = enumerate_connected(1, 3)
    assert len(ds) == 5
    mat = assemble(generate_relations(ds), len(ds))
    assert len(pivot_columns(mat)) == 2  # dimension 5 - 3


def test_no_rows_from_equal_adjacent_labels():
    ds = enumerate_connected(1, 1)  # only "00": its adjacent feet share the chord
    assert generate_relations(ds) == []


def test_no_rows_below_two_chords():
    assert generate_relations(enumerate_connected(2, 1)) == []


def test_merged_coefficients_and_zero_sum():
    for m, n in [(1, 3), (2, 2), (2, 3)]:
        ds = enumerate_connected(m, n)
        for row in generate_relations(ds):
            values = [c for _, c in row.coeffs]
            assert all(v in (-2, -1, 1, 2) for v in values)
            assert sum(values) == 0
            assert 0 <= len(values) <= 4


def test_row_indices_in_range_and_sorted():
    ds = enumerate_connected(2, 2)
    for row in generate_relations(ds):
        cols = [i for i, _ in row.coeffs]
        assert cols == sorted(cols)
        assert all(0 <= i < len(ds) for i in cols)


def test_generation_order_documented_and_deterministic():
    ds = enumerate_connected(2, 3)
    assert generate_relations(ds) == generate_relations(ds)
    labelled = _labelled(ds)
    families = [label["family"] for label, _ in labelled[:2]]
    assert families == ["interior-A", "interior-B"]
    sources = [label["source"] for label, _ in labelled]
    # grouped by diagram, diagrams in set order
    assert list(dict.fromkeys(sources)) == [
        str(d) for d in ds.diagrams if str(d) in sources]
    assert sources == sorted(sources, key=sources.index)


def test_wrap_family_emitted():
    ds = enumerate_connected(2, 2)
    families = {label["family"] for label, _ in _labelled(ds)}
    assert "wrap-A" in families and "wrap-B" in families


def test_two_foot_circle_emits_interior_and_wrap():
    ds = enumerate_connected(2, 2)
    pair_kinds = {(label["circle"], label["family"][:4])
                  for label, _ in _labelled(ds) if label["source"] == "01|01"}
    assert ("0", "inte") in pair_kinds and ("0", "wrap") in pair_kinds


def test_component_preservation_on_generated_rows():
    ds = enumerate_connected(2, 3)
    for row in generate_relations(ds):
        assert check_component_preservation(row, ds)


def test_component_preservation_in_debug_mode_on_full_sets():
    ds = enumerate_all(2, 2)
    rows = generate_relations(ds)
    assert rows
    for row in rows:
        assert check_component_preservation(row, ds)


def test_component_preservation_rejects_artificial_mixture():
    ds = enumerate_all(2, 3)
    mixed = ds.index_of(diagram("0011|22"))
    connected = ds.index_of(diagram("0102|12"))
    fake = Relation(((mixed, 1), (connected, -1)))
    assert not check_component_preservation(fake, ds)


def test_empty_relation_trivially_preserves_components():
    ds = enumerate_connected(1, 2)
    empty = Relation(())
    assert check_component_preservation(empty, ds)


def test_serialization_roundtrip_keeps_empty_audit_rows():
    ds = enumerate_connected(1, 2)
    rows = generate_relations(ds)
    text = relations_to_text(ds, rows)
    assert "rows=" in text and "nonzero=0" in text
    back = relations_from_text(text, ds)
    assert back == rows


def test_serialization_roundtrip_nonzero():
    ds = enumerate_connected(2, 3)
    rows = generate_relations(ds)
    assert relations_from_text(relations_to_text(ds, rows), ds) == rows


def test_frozen_rows_for_three_chords():
    # hand-checked through the remove/reinsert edit semantics: for 001122,
    # pair (1,2), moving the first loop's foot past the adjacent loop gives
    # [001122] = [001221] (the swap term and the before-far-foot term are
    # the same string and cancel)
    ds = enumerate_connected(1, 3)
    assert [str(d) for d in ds.diagrams] == [
        "001122", "001212", "001221", "010212", "012012",
    ]
    labelled = _labelled(ds)
    label, first = labelled[0]
    assert label == {"source": "001122", "circle": "0", "pair": "1,2",
                     "family": "interior-A"}
    assert first.coeffs == ((0, 1), (2, -1))
    # a merged coefficient of -2 from coinciding canonical forms
    label, seventh = labelled[6]
    assert label["source"] == "001212"
    assert seventh.coeffs == ((1, 1), (3, -2), (4, 1))
    # and its family-B partner merges away entirely (kept for audit)
    label, eighth = labelled[7]
    assert label["family"] == "interior-B"
    assert eighth.is_zero()


def test_relation_is_its_coefficients_alone():
    assert [f.name for f in dataclasses.fields(Relation)] == ["coeffs"]
    row = Relation(((0, 1), (2, -1)))
    assert not hasattr(row, "__dict__")
    assert row == Relation(((0, 1), (2, -1))) and not row.is_zero()


@pytest.mark.parametrize("enumerate_fn, m, n, digest", [
    (enumerate_connected, 1, 3,
     "sha256:97cf4e9d3ec0de38c731ed3b141f4dce50b9ad4eed117855a7e6d8444b8f0b9c"),
    (enumerate_connected, 2, 3,
     "sha256:32540cbb68595ead44a9bc7f1f0d6c53f29ed23fc69f8fe4dc52a7ffa0fbd9a6"),
    (enumerate_all, 2, 2,
     "sha256:9ae840181cd2137b00ca28ab3a208aa8eb78ccab6a05f55d944c8bfd9c7d614b"),
    (enumerate_all, 3, 3,
     "sha256:1d0099a3b1566fbdd4458463ef8c8971563156c596d69267c5165d3b9fb91661"),
    (enumerate_connected, 3, 4,
     "sha256:875a1ae7f314db33187494860bd70c9c9a082b143912f1b8fe9312e90b2cc1e4"),
    (enumerate_all, 4, 3,
     "sha256:2d112d6c7e05d9ed91b7f940c944f9db2969be44e0a5a53b5fc926065991f7a3"),
    (enumerate_all, 6, 3,
     "sha256:c2cadfc107e7daa43ff91495d795a70fcd323de051ff307141ea3971875845cd"),
    (enumerate_all, 4, 4,
     "sha256:98761412b88fd1869e8405cd4330c3a2f5800669aa10adc5c99dd43efb6dcc21"),
])
def test_relations_file_bytes_are_pinned(enumerate_fn, m, n, digest):
    ds = enumerate_fn(m, n)
    assert content_digest(relations_to_text(ds, generate_relations(ds))) == digest


def _count_orbits(monkeypatch):
    """The feet of every orbit built from now on; ``enumeration`` is the
    one module that builds orbits."""
    assert "orbit" not in vars(relations)
    built = []

    def counting(feet, starts):
        built.append(feet)
        return orbit(feet, starts)

    monkeypatch.setattr(enumeration, "orbit", counting)
    return built


def test_one_canonical_form_per_distinct_term(monkeypatch):
    built = _count_orbits(monkeypatch)
    ds = enumerate_connected(4, 4)
    assert len(built) == len(ds) == 279
    rows = generate_relations(ds)
    # 1584 adjacent pairs, two rows each; every edited term the rows look up
    # is found among the orbit images that enumeration built, one orbit per
    # diagram of the set's 279, and none is built again for the rows
    assert len(rows) == 2 * 1584
    assert len(built) == 279


def test_full_list_builds_each_row_class_once():
    ds = enumerate_connected(4, 4)
    terms, rows = _looked_up(ds)
    # one lookup per edited term of every slot (the swapped term and four
    # moved-foot terms of each of the 1584 adjacent pairs) would be 7920;
    # each row is built at the first slot of its class and copied to the
    # others, so 2184 terms are looked up
    assert len(rows) == 2 * 1584
    assert len(terms) == 2184


def test_hand_built_set_gets_one_orbit_per_diagram(monkeypatch):
    ds = enumerate_connected(4, 4)
    copy = DiagramSet(ds.m, ds.n, ds.kind, ds.diagrams)
    built = _count_orbits(monkeypatch)
    # a set that enumeration did not build carries no orbit maps, so its
    # maps are built from one orbit per diagram, with the same rows
    assert generate_relations(copy) == generate_relations(ds)
    assert len(built) == len(ds) == 279


def test_rows_built_once_per_active_block(monkeypatch):
    built = _count_orbits(monkeypatch)
    ds = enumerate_all(6, 3)
    rows = generate_relations(ds)
    # 2170 diagrams on 63 bare-circle patterns, which share 6 active lists
    # (one per active circle count) of 176 diagrams in all; enumeration
    # builds one orbit per diagram of the lists, and the rows of each list
    # are built once from those orbits, with none built again
    assert len(rows) == 12828
    assert len(built) == 176
    # a hand-built copy builds the same 176 orbits for its maps
    copy = DiagramSet(ds.m, ds.n, ds.kind, ds.diagrams)
    assert generate_relations(copy) == rows
    assert len(built) == 2 * 176


def test_terms_already_numbered_are_not_renumbered(monkeypatch):
    ds = enumerate_connected(2, 4)
    expected = {relate: relate(ds) for relate in (generate_relations, relation_classes)}
    relabelled = []
    relabel = enumeration.relabel

    def counting(feet):
        relabelled.append(feet)
        return relabel(feet)

    # the set's term lookup, DiagramSet.term_feet, is the one renumbering
    monkeypatch.setattr(enumeration, "relabel", counting)
    pairs = sum(1 for d in ds for _ in relations._adjacent_pairs(d.rep.feet, d.rep.starts))
    assert pairs == 464
    for relate, count in ((generate_relations, 928), (relation_classes, 284)):
        relabelled.clear()
        terms, rows = _looked_up(ds, relate)
        assert rows == expected[relate]
        # both look up the 760 terms of the 284 rows built over the 464
        # adjacent pairs (a slot copied from an earlier one looks up none);
        # only the 304 terms whose feet are not numbered by first occurrence
        # miss the orbit map and are renumbered
        assert (len(rows), len(terms)) == (count, 760)
        assert len(relabelled) == 304 == sum(1 for feet, *_ in terms if feet != relabel(feet))


def _looked_up(ds, relate=generate_relations):
    """Every (feet, active starts, position) that ``relate`` over ``ds``
    looks up, and the rows it generates."""
    looked_up = []
    term_feet = ds.term_feet

    def recording(budget=None):
        feet_of = term_feet(budget)

        def record(*term):
            looked_up.append(term)
            return feet_of(*term)

        return record

    ds.term_feet = recording
    rows = relate(ds)
    del ds.term_feet
    return looked_up, rows


def _carried(feet, starts, pos, canonical, landed):
    """True iff some rotation of every circle that carries position ``pos``
    to ``landed`` relabels ``feet`` into ``canonical``."""
    i = next(i for i, hi in enumerate(starts[1:]) if pos < hi)
    lo, hi = starts[i], starts[i + 1]
    assert lo <= landed < hi
    turns = [range(b - a) or [0] for a, b in zip(starts, starts[1:])]
    turns[i] = [(pos - landed) % (hi - lo)]
    for combo in itertools.product(*turns):
        rotated = [x for (a, b), r in zip(zip(starts, starts[1:]), combo)
                   for x in feet[a + r:b] + feet[a:a + r]]
        if relabel(rotated) == canonical:
            return True
    return False


@pytest.mark.parametrize("enumerate_fn, m, n", [(enumerate_connected, 3, 4),
                                                 (enumerate_all, 3, 3)])
def test_term_feet_is_the_canonical_form_of_every_edited_term(enumerate_fn, m, n):
    ds = enumerate_fn(m, n)
    terms, _ = _looked_up(ds)
    assert terms
    copy = DiagramSet(ds.m, ds.n, ds.kind, ds.diagrams)  # no orbit maps
    for feet_of in (ds.term_feet(), copy.term_feet()):
        for feet, starts, pos in terms:
            canonical, landed = feet_of(feet, starts, pos)
            assert canonical == canonical_feet(feet, starts)
            assert _carried(feet, starts, pos, canonical, landed)


def test_term_feet_refuses_a_term_outside_the_set():
    ds = enumerate_connected(2, 3)
    feet_of = ds.term_feet()
    with pytest.raises(KeyError):
        feet_of((0, 0, 1, 2, 1, 2), (0, 2, 6), 0)  # disconnected, in a block the set has
    with pytest.raises(KeyError):
        feet_of((0, 1, 2, 0, 1, 2), (0, 1, 2, 6), 0)  # starts with no block
    # copies without maps: one lacks a diagram, the other its whole block
    rep = ds.diagrams[0].rep
    lacking_feet = [d for d in ds if d.rep != rep]
    lacking_block = [d for d in ds if d.rep.starts != rep.starts]
    assert any(d.rep.starts == rep.starts for d in lacking_feet)
    for kept in (lacking_feet, lacking_block):
        copy = DiagramSet(ds.m, ds.n, ds.kind, tuple(kept))
        with pytest.raises(KeyError):
            copy.term_feet()(rep.feet, rep.starts, 0)
    # an unframed set looks a term up before it tests isolation: a term it
    # lacks is still refused, and an isolated one still dropped, also in a
    # block the copy lacks
    unframed = enumeration._enumerate(2, 4, "unframed", None)
    rep = unframed.diagrams[0].rep
    isolated = [d.rep for d in enumerate_connected(2, 4) if _isolated(d)]
    assert any(iso.starts == rep.starts for iso in isolated)
    lacking_feet = [d for d in unframed if d.rep != rep]
    lacking_block = [d for d in unframed if d.rep.starts != rep.starts]
    for kept in (lacking_feet, lacking_block):
        copy = DiagramSet(unframed.m, unframed.n, unframed.kind, tuple(kept))
        with pytest.raises(KeyError):
            copy.term_feet()(rep.feet, rep.starts, 0)
        with pytest.raises(DiagramError):
            relation_classes(copy)
        assert all(copy.term_feet()(iso.feet, iso.starts, 0) is None for iso in isolated)


def test_set_pipeline_never_runs_the_branch_and_bound_search(monkeypatch):
    def refuse(feet, starts):
        raise AssertionError("the set pipeline takes canonical forms from orbits")

    # every binding of the function object, under whatever name
    for module in list(sys.modules.values()):
        if not module.__name__.startswith("chordbasis"):
            continue
        for name, value in list(vars(module).items()):
            if value is canonical_feet:
                monkeypatch.setattr(module, name, refuse)
    assert "canonical_feet" not in vars(enumeration)
    assert "canonical_feet" not in vars(relations)
    ds = enumerate_connected(4, 4)
    assert len(generate_relations(ds)) == 2 * 1584


def _rows_by_source(ds):
    """Each diagram's rows, in order, as {diagram string: coefficient}."""
    out = {}
    for label, row in _labelled(ds):
        out.setdefault(label["source"], []).append(
            {str(ds.diagrams[i]): c for i, c in row.coeffs})
    return out


def _put_back(text, circles):
    """The diagram string ``text`` on len(circles) circles: its k blocks on
    the circles where ``circles`` is true, empty blocks elsewhere."""
    blocks = iter(text.split("|"))
    return "|".join(next(blocks) if active else "" for active in circles)


@pytest.mark.parametrize("m, n", [(3, 3), (4, 3), (2, 4)])
def test_rows_do_not_depend_on_the_set(m, n):
    everything = _rows_by_source(enumerate_all(m, n))
    connected = _rows_by_source(enumerate_connected(m, n))
    assert connected
    for source, rows in connected.items():
        assert everything[source] == rows
    blocks: dict[int, dict] = {}
    bare = 0
    for source, rows in everything.items():
        circles = [bool(b) for b in source.split("|")]
        if all(circles):
            continue
        bare += 1
        k = sum(circles)
        if k not in blocks:
            blocks[k] = _rows_by_source(enumerate_all(k, n))
        active = "|".join(b for b in source.split("|") if b)
        assert rows == [{_put_back(d, circles): c for d, c in row.items()}
                        for row in blocks[k][active]]
    assert bare


def test_a_set_without_a_used_term_is_refused():
    full = enumerate_all(3, 3)
    # on the last of the three patterns with one bare circle, so that the
    # two before it have the whole list and it must not share their rows
    gone = full.index_of(diagram("0102|12|"))
    # another diagram with the same bare circle has a row on it
    assert any(label["source"] != "0102|12|" and gone in dict(row.coeffs)
               for label, row in _labelled(full))
    ds = DiagramSet(3, 3, "all", full.diagrams[:gone] + full.diagrams[gone + 1:])
    for relate in (generate_relations, relation_classes):
        with pytest.raises(DiagramError):
            relate(ds)


def _direct_rows(ds):
    """Every row of ``ds`` in generation order, each merged from the
    columns of its four edited terms, which ``canonical_feet`` finds one
    by one."""
    column = {(d.rep.feet, d.rep.starts): c for c, d in enumerate(ds)}

    def col(blocks):
        feet = tuple(x for block in blocks for x in block)
        starts = tuple(itertools.accumulate([len(b) for b in blocks], initial=0))
        return column[(canonical_feet(feet, starts), starts)]

    def moved(blocks, foot, around, after):
        """``foot`` (circle, index) taken out and put back just before or
        after the foot ``around``."""
        out = [list(b) for b in blocks]
        label = out[foot[0]].pop(foot[1])
        i, k = around
        k -= i == foot[0] and k > foot[1]
        out[i].insert(k + after, label)
        return out

    rows = []
    for source, d in enumerate(ds):
        blocks = d.rep.blocks()
        places = [(i, k) for i, b in enumerate(blocks) for k in range(len(b))]
        for i, b in enumerate(blocks):
            for k in range(len(b) if len(b) >= 2 else 0):
                a_foot, b_foot = (i, k), (i, (k + 1) % len(b))
                a, c = b[k], b[b_foot[1]]
                if a == c:
                    continue
                a_far = next(p for p in places if blocks[p[0]][p[1]] == a and p != a_foot)
                b_far = next(p for p in places if blocks[p[0]][p[1]] == c and p != b_foot)
                swapped = [list(x) for x in blocks]
                swapped[i][k], swapped[i][b_foot[1]] = c, a
                terms = {"A": [(col(moved(blocks, a_foot, b_far, False)), 1),
                               (col(moved(blocks, a_foot, b_far, True)), -1)],
                         "B": [(col(moved(blocks, b_foot, a_far, False)), -1),
                               (col(moved(blocks, b_foot, a_far, True)), 1)]}
                for family in ("A", "B"):
                    merged = collections.Counter()
                    for t, v in [(source, 1), (col(swapped), -1)] + terms[family]:
                        merged[t] += v
                    rows.append(tuple(sorted((t, v) for t, v in merged.items() if v)))
    return rows


@pytest.mark.parametrize("make", [
    lambda: enumerate_connected(1, 4),
    lambda: enumerate_connected(2, 4),
    lambda: enumerate_connected(3, 3),
    lambda: enumerate_connected(3, 4),  # many orbits walked from a member not least
    lambda: enumerate_all(3, 3),
    lambda: enumeration._enumerate(4, 3, "active", None),
    lambda: DiagramSet(2, 4, "connected", enumerate_connected(2, 4).diagrams),  # no orbit maps
], ids=["connected-1-4", "connected-2-4", "connected-3-3", "connected-3-4", "all-3-3", "active-4-3",
        "hand-built-2-4"])
def test_every_row_is_the_direct_four_term_merge(make):
    # sets with automorphic diagrams and two-foot circles, whose interior
    # and wrap pairs coincide; rows copied between the slots of a class
    # must equal the rows built directly at each slot, and the built rows
    # are those rows with the copies left out
    ds = make()
    direct = _direct_rows(ds)
    assert direct
    assert [r.coeffs for r in generate_relations(ds)] == direct
    assert _is_subsequence([r.coeffs for r in relation_classes(ds)], direct)


def _isolated(d):
    return isolated_chord_test(d.rep.starts)(d.rep.feet)


@pytest.mark.parametrize("m, n", [(1, 5), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_unframed_rows_are_the_direct_rows_without_isolated_terms(m, n):
    full = enumerate_connected(m, n)
    unframed = enumeration._enumerate(m, n, "unframed", None)
    column = {c: k for k, c in enumerate(i for i, d in enumerate(full) if not _isolated(d))}
    assert len(column) == len(unframed)

    def projected(row):
        return tuple((column[c], v) for c, v in row if c in column)

    # the full list of the unframed set, copies included, is the direct
    # rows at its sources with every isolated term dropped
    direct = iter(_direct_rows(full))
    expected = []
    for i, d in enumerate(full):
        rows = [next(direct) for _ in range(2 * len(list(_adjacent_pairs(d.rep.feet,
                                                                          d.rep.starts))))]
        if i in column:
            expected += [projected(row) for row in rows]
    assert [r.coeffs for r in generate_relations(unframed)] == expected
    built = relation_classes(unframed)
    assert _is_subsequence([r.coeffs for r in built], expected)
    # and rows at the sources without an isolated chord suffice: the
    # projection of every row of the whole set has the same row space
    everything = [dict(projected(r.coeffs)) for r in generate_relations(full)]
    assert rref(assemble(built, len(unframed))) == rref(assemble(everything, len(unframed)))


@pytest.mark.parametrize("kind, m, n, count", [("active", 2, 2, 4), ("unframed", 2, 3, 6)])
def test_no_file_is_written_for_a_family_it_cannot_name(kind, m, n, count):
    # a header names every (m, n) diagram or the connected ones: an active
    # or unframed set would claim a set it does not hold (the all-set and
    # connected files keep their bytes, pinned above and in test_enumeration)
    clear_memo()
    ds = quotient(m, n, kind).diagram_set
    assert ds.kind == kind and len(ds) == count
    with pytest.raises(ChordBasisError):
        ds.to_text()
    with pytest.raises(ChordBasisError):
        relations_to_text(ds, generate_relations(ds))
    clear_memo()


def test_term_feet_gives_no_feet_to_a_term_the_family_drops():
    # the isolated-chord test belongs to the unframed set: a connected
    # diagram with an isolated chord is a term of the connected set and a
    # dropped term of the unframed one
    connected = enumerate_connected(2, 4)
    unframed = enumeration._enumerate(2, 4, "unframed", None)
    isolated = [d for d in connected if _isolated(d)]
    assert isolated and len(unframed) == len(connected) - len(isolated)
    for d in isolated:
        feet, starts = d.rep.feet, d.rep.starts
        assert connected.term_feet()(feet, starts, 0)[0] == feet
        assert unframed.term_feet()(feet, starts, 0) is None
    kept = unframed.diagrams[0].rep
    assert unframed.term_feet()(kept.feet, kept.starts, 0)[0] == kept.feet


def _cycle_count(d):
    """The number of cycles of p -> next(partner(p)), where next is the next
    position on p's circle, read cyclically; a bare circle is one cycle.
    The gl_N weight system sends d to N to this power."""
    feet, starts = d.rep.feet, d.rep.starts
    first, partner = {}, {}
    for p, c in enumerate(feet):
        if c in first:
            partner[p], partner[first[c]] = first[c], p
        first.setdefault(c, p)
    step = {}
    for lo, hi in zip(starts, starts[1:]):
        for p in range(lo, hi):
            step[p] = p + 1 if p + 1 < hi else lo
    seen, cycles = set(), sum(1 for lo, hi in zip(starts, starts[1:]) if lo == hi)
    for p in range(len(feet)):
        if p not in seen:
            cycles += 1
            while p not in seen:
                seen.add(p)
                p = step[partner[p]]
    return cycles


def _weights_vanish(row, cycles):
    """True iff the coefficients of ``row`` sum to zero within each cycle
    count, that is, the gl_N weight system kills the row for every N."""
    sums = collections.Counter()
    for c, v in row:
        sums[cycles[c]] += v
    return not any(sums.values())


@pytest.mark.parametrize("make", [
    lambda: enumerate_connected(1, 5),
    lambda: enumerate_connected(2, 4),
    lambda: enumerate_connected(2, 5),
    lambda: enumerate_connected(3, 4),
    lambda: enumerate_all(3, 3),
], ids=["connected-1-5", "connected-2-4", "connected-2-5", "connected-3-4", "all-3-3"])
def test_gl_n_weight_system_kills_every_row(make):
    # an oracle that shares nothing with the row builder: a four-term row
    # is a relation of the gl_N weight system for every N
    ds = make()
    cycles = [_cycle_count(d) for d in ds]
    rows = [r.coeffs for r in generate_relations(ds)]
    assert all(_weights_vanish(row, cycles) for row in rows)
    # a row's coefficients sum to zero, so only rows over several cycle
    # counts test anything
    assert any(len({cycles[c] for c, _ in row}) > 1 for row in rows)
    # and it catches one flipped sign
    row = next(r for r in rows if r)
    col, value = row[0]
    assert not _weights_vanish(((col, -value),) + row[1:], cycles)


def _up_to_sign(rows):
    """The nonzero rows, each scaled so that its first coefficient is
    positive, as a set."""
    return {r.coeffs if r.coeffs[0][1] > 0 else tuple((c, -v) for c, v in r.coeffs)
            for r in rows if r.coeffs}


def _is_subsequence(rows, of):
    """True iff ``rows`` is ``of`` with some of its entries left out."""
    rest = iter(of)
    return all(any(row == other for other in rest) for row in rows)


@pytest.mark.parametrize("enumerate_fn, m, n", [
    (enumerate_connected, m, n) for m in range(1, 6) for n in range(max(m - 1, 1), 6)
] + [
    (enumerate_all, m, n) for m in range(1, 8) for n in range(1, min(8 - m, 4) + 1)
])
def test_family_a_is_minus_family_b(enumerate_fn, m, n):
    ds = enumerate_fn(m, n)
    rows = generate_relations(ds)
    # every A row of S is minus the B row of S with the pair swapped, and
    # every B row arises so: as sets up to sign the families coincide
    assert _up_to_sign(rows[0::2]) == _up_to_sign(rows[1::2])
    # the built rows are the full list with the copies left out, and every
    # copy is a built row up to sign
    classes = relation_classes(ds)
    assert _is_subsequence(classes, rows)
    assert _up_to_sign(classes) == _up_to_sign(rows)


@pytest.mark.parametrize("make", [
    lambda m=m, n=n: enumerate_connected(m, n) for n in range(1, 6) for m in range(1, n + 2)
] + [
    lambda k=k: enumeration._enumerate(k, 3, "active", None) for k in range(1, 7)
] + [
    lambda: enumerate_all(3, 3),
    lambda: enumerate_all(4, 3),  # several bare-circle patterns share one active list
    lambda: DiagramSet(2, 4, "connected", enumerate_connected(2, 4).diagrams),  # no orbit maps
], ids=[f"connected-{m}-{n}" for n in range(1, 6) for m in range(1, n + 2)]
    + [f"active-{k}-3" for k in range(1, 7)] + ["all-3-3", "all-4-3", "hand-built-2-4"])
def test_built_rows_assemble_as_the_full_list(make):
    ds = make()
    assert assemble(relation_classes(ds), len(ds)) == assemble(generate_relations(ds), len(ds))


@pytest.mark.parametrize("connected, m, n", [
    (True, m, n) for n in range(5) for m in range(1, n + 2)
] + [(True, 1, 5), (True, 2, 5)] + [(False, k, 3) for k in range(1, 7)])
def test_family_b_of_the_full_list_assembles_as_b_only(connected, m, n):
    # basis.quotient eliminates the built rows, or the full list when it
    # also relates that list for the relations file: the echelon form is
    # the same, and so is its matrix's shape
    kind = "connected" if connected else "active"
    clear_memo()
    alone = quotient(m, n, kind)
    clear_memo()
    rows = []
    related = quotient(m, n, kind, rows=rows)
    assert related.echelon == alone.echelon
    assert related.cells == alone.cells
    ds = related.diagram_set
    assert rows == generate_relations(ds)
    # family B alone holds every distinct row up to sign
    assert _up_to_sign(rows[1::2]) == _up_to_sign(relation_classes(ds))
    families = [label.split()[-1] for label in relations._row_labels(ds)]
    assert len(families) == len(rows)
    assert all(f.startswith("family=") and f.endswith("-B") for f in families[1::2])
    assert not any(f.endswith("-B") for f in families[0::2])


@pytest.mark.parametrize("m, n, built, distinct", [(2, 5, 2512, 1858), (3, 5, 6998, 5409)])
def test_b_rows_are_built_once_per_twin_pair(m, n, built, distinct):
    ds = enumerate_connected(m, n)
    rows = relation_classes(ds)
    assert len(rows) == built  # of 9188 and 27192 rows in the full list
    assert assemble(rows, len(ds)).nrows == distinct


@pytest.mark.parametrize("m, n, distinct", [(3, 4, 294), (2, 5, 1858)])
def test_distinct_b_rows_have_the_rref_of_all_rows(m, n, distinct):
    ds = enumerate_connected(m, n)
    reduced = assemble(relation_classes(ds), len(ds))
    assert reduced.nrows == distinct
    assert set(reduced.rows) <= {r.coeffs for r in generate_relations(ds)}
    assert rref(reduced) == rref(assemble(generate_relations(ds), len(ds)))


def test_time_budget_fires_during_generation():
    ds = enumerate_all(5, 4)
    began = time.monotonic()
    with pytest.raises(BudgetExceededError):
        generate_relations(ds, budget=Budget(time_budget=0.05))
    assert time.monotonic() - began < 0.5


def test_writer_rejects_rows_it_did_not_generate():
    ds = enumerate_connected(2, 3)
    rows = generate_relations(ds)
    for wrong in (rows[:-1], rows + [Relation(())], []):
        with pytest.raises(ChordBasisError):
            relations_to_text(ds, wrong)


@pytest.mark.parametrize("old, new", [
    ("family=interior-B", "family=interior-A"),
    (" digest=sha256:", " digest=sha256:0"),
])
def test_reader_rejects_edited_provenance_or_digest(old, new):
    ds = enumerate_connected(2, 3)
    text = relations_to_text(ds, generate_relations(ds))
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if old in line)
    lines[i] = lines[i].replace(old, new, 1)
    with pytest.raises(DiagramError):
        relations_from_text("\n".join(lines), ds)


@pytest.mark.parametrize("coeffs", [
    ((999, 1), (0, 0), (0, 3)),   # the three faults at once
    ((0, 1), (3, -1)),            # a column past the last diagram
    ((-1, 1), (0, 1)),            # a negative column
    ((1, 1), (0, -1)),            # decreasing columns
    ((0, 1), (0, -1)),            # a repeated column
    ((0, 1), (2, 0)),             # a zero coefficient
])
def test_reader_rejects_rows_generation_never_writes(coeffs):
    # the writer writes any rows of the right count, so the file is the
    # text written for its rows; the reader still refuses them
    ds = enumerate_connected(2, 2)
    assert len(ds) == 3
    rows = generate_relations(ds)
    text = relations_to_text(ds, [Relation(coeffs)] + rows[1:])
    with pytest.raises(DiagramError):
        relations_from_text(text, ds)
