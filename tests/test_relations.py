import pytest

from chordbasis.diagrams import diagram
from chordbasis.enumeration import enumerate_all, enumerate_connected
from chordbasis.exactla import assemble, pivot_columns
from chordbasis.relations import (
    Provenance,
    Relation,
    check_component_preservation,
    generate_relations,
    relations_from_text,
    relations_to_text,
)


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
    rows1 = generate_relations(ds)
    assert generate_relations(ds) == rows1
    families = [r.provenance.family for r in rows1[:2]]
    assert families == ["interior-A", "interior-B"]
    sources = [r.provenance.source for r in rows1]
    assert sources == sorted(sources, key=lambda s: sources.index(s))  # grouped by diagram


def test_wrap_family_emitted():
    ds = enumerate_connected(2, 2)
    families = {r.provenance.family for r in generate_relations(ds)}
    assert "wrap-A" in families and "wrap-B" in families


def test_two_foot_circle_emits_interior_and_wrap():
    ds = enumerate_connected(2, 2)
    rows = [r for r in generate_relations(ds) if r.provenance.source == "01|01"]
    pair_kinds = {(r.provenance.circle, r.provenance.family[:4]) for r in rows}
    assert (0, "inte") in pair_kinds and (0, "wrap") in pair_kinds


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
    fake = Relation(((mixed, 1), (connected, -1)),
                    Provenance("test", 0, (0, 1), "interior-A"))
    assert not check_component_preservation(fake, ds)


def test_empty_relation_trivially_preserves_components():
    ds = enumerate_connected(1, 2)
    empty = Relation((), Provenance("0011", 0, (1, 2), "interior-A"))
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
    rows = generate_relations(ds)
    first = rows[0]
    assert first.provenance.source == "001122"
    assert first.provenance.positions == (1, 2)
    assert first.provenance.family == "interior-A"
    assert first.coeffs == ((0, 1), (2, -1))
    # a merged coefficient of -2 from coinciding canonical forms
    seventh = rows[6]
    assert seventh.provenance.source == "001212"
    assert seventh.coeffs == ((1, 1), (3, -2), (4, 1))
    # and its family-B partner merges away entirely (kept for audit)
    assert rows[7].provenance.family == "interior-B"
    assert rows[7].is_zero()
