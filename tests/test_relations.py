import dataclasses
import sys
import time

import pytest

from chordbasis import enumeration, relations
from chordbasis.budget import Budget
from chordbasis.diagrams import canonical_feet, diagram, orbit
from chordbasis.enumeration import DiagramSet, enumerate_all, enumerate_connected
from chordbasis.errors import BudgetExceededError, ChordBasisError, DiagramError
from chordbasis.exactla import assemble, pivot_columns, rref
from chordbasis.relations import (
    Relation,
    check_component_preservation,
    generate_relations,
    relations_from_text,
    relations_to_text,
)
from chordbasis.util import content_digest


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


def test_one_canonical_form_per_distinct_term(monkeypatch):
    ds = enumerate_connected(4, 4)
    calls = []

    def counting(feet, starts):
        calls.append(feet)
        return orbit(feet, starts)

    monkeypatch.setattr(relations, "orbit", counting)
    rows = generate_relations(ds)
    # 1584 adjacent pairs, each with a swapped term and four moved-foot
    # terms: 7920 edited terms, each found among the orbit images of the
    # set's 279 diagrams, one orbit per diagram
    assert len(rows) == 2 * 1584
    assert len(calls) == len(ds) == 279


def test_rows_built_once_per_active_block(monkeypatch):
    ds = enumerate_all(6, 3)
    calls = []

    def counting(feet, starts):
        calls.append(feet)
        return orbit(feet, starts)

    monkeypatch.setattr(relations, "orbit", counting)
    rows = generate_relations(ds)
    # 2170 diagrams on 63 bare-circle patterns, which share 6 active lists
    # (one per active circle count) of 176 diagrams in all; the rows of
    # each list are built once, from one orbit per diagram of the list
    assert len(rows) == 12828
    assert len(calls) == 176


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
    ds = DiagramSet(3, 3, False, full.diagrams[:gone] + full.diagrams[gone + 1:])
    for b_only in (False, True):
        with pytest.raises(DiagramError):
            generate_relations(ds, b_only=b_only)


def _up_to_sign(rows):
    """The nonzero rows, each scaled so that its first coefficient is
    positive, as a set."""
    return {r.coeffs if r.coeffs[0][1] > 0 else tuple((c, -v) for c, v in r.coeffs)
            for r in rows if r.coeffs}


@pytest.mark.parametrize("enumerate_fn, m, n", [
    (enumerate_connected, 2, 3), (enumerate_connected, 3, 3),
    (enumerate_connected, 2, 4), (enumerate_connected, 3, 4),
    (enumerate_connected, 1, 5), (enumerate_connected, 2, 5),
    (enumerate_all, 4, 3), (enumerate_all, 4, 4),
])
def test_family_a_is_minus_family_b(enumerate_fn, m, n):
    ds = enumerate_fn(m, n)
    rows = generate_relations(ds)
    b_rows = generate_relations(ds, b_only=True)
    assert b_rows == rows[1::2]
    # every A row of S is minus the B row of S with the pair swapped, and
    # every B row arises so: as sets up to sign the families coincide
    assert _up_to_sign(rows[0::2]) == _up_to_sign(b_rows)


@pytest.mark.parametrize("m, n, distinct", [(3, 4, 294), (2, 5, 1858)])
def test_distinct_b_rows_have_the_rref_of_all_rows(m, n, distinct):
    ds = enumerate_connected(m, n)
    reduced = assemble(generate_relations(ds, b_only=True), len(ds), distinct=True)
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
