import itertools
import time
from types import SimpleNamespace

import pytest

from chordbasis import budget as budget_module
from chordbasis import diagrams, enumeration
from chordbasis.budget import Budget
from chordbasis.cache import content_digest
from chordbasis.diagrams import diagram, is_connected, orbit, permute_circles
from chordbasis.enumeration import (
    DiagramSet,
    enumerate_all,
    enumerate_all_naive,
    enumerate_connected,
)
from chordbasis.errors import BudgetExceededError, DiagramError


def strings(ds):
    return [str(d) for d in ds.diagrams]


def test_one_circle_two_chords():
    assert strings(enumerate_all(1, 2)) == ["0011", "0101"]


def test_one_circle_three_chords_count():
    assert len(enumerate_all(1, 3)) == 5


def test_zero_chords():
    ds = enumerate_all(1, 0)
    assert strings(ds) == [""]
    assert len(enumerate_connected(3, 0)) == 0


def test_connected_two_circles_one_chord():
    assert strings(enumerate_connected(2, 1)) == ["0|0"]


def test_connected_empty_below_tree_bound():
    assert len(enumerate_connected(3, 1)) == 0


def test_connected_two_circles_two_chords():
    ds = enumerate_connected(2, 2)
    assert len(ds) >= 3
    assert all(is_connected(d) for d in ds)


def test_members_sorted_and_distinct():
    ds = enumerate_all(2, 2)
    assert list(ds.diagrams) == sorted(set(ds.diagrams))


def test_connected_subset_of_all():
    full = set(enumerate_all(2, 3).diagrams)
    conn = set(enumerate_connected(2, 3).diagrams)
    assert conn < full


def test_closure_under_circle_relabelling():
    ds = enumerate_all(3, 2)
    members = set(ds.diagrams)
    for d in ds:
        for sigma in itertools.permutations(range(3)):
            assert permute_circles(d, sigma) in members


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
                                 (3, 2), (3, 3), (4, 2), (5, 2)])
def test_matches_naive_generator(m, n):
    assert enumerate_all(m, n) == enumerate_all_naive(m, n)


@pytest.mark.parametrize("m,n", [(3, 3), (2, 4), (4, 3)])
def test_connected_set_is_the_connected_part_of_all(m, n):
    ds = enumerate_connected(m, n)
    assert ds.diagrams == tuple(d for d in enumerate_all(m, n) if is_connected(d))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (2, 4), (3, 3), (3, 4), (4, 3)])
def test_unframed_set_is_the_connected_set_without_isolated_chords(m, n):
    # the same walk, charged the same candidates; a matching with an
    # isolated chord is dropped with its whole orbit
    full, dropped = Budget(), Budget()
    ds = enumerate_connected(m, n, budget=full)
    unframed = enumeration._enumerate(m, n, True, dropped, unframed=True)
    kept = tuple(d for d in ds
                 if not diagrams.isolated_chord_test(d.rep.starts)(d.rep.feet))
    assert unframed.unframed and unframed.diagrams == kept
    assert dropped.candidates_used == full.candidates_used
    for starts, (images, rotations) in unframed._images.items():
        assert images.keys() == rotations.keys()
        assert not any(map(diagrams.isolated_chord_test(starts), images))


@pytest.mark.parametrize("enumerate_fn, m, n, digest", [
    (enumerate_connected, 3, 4,
     "8bee853765fcc616f79d6f1d44f437b2809e07202f282a5844ff3478d96296d6"),
    (enumerate_connected, 4, 4,
     "e823568bb5e51c086c1443ba50c7ba2b8c112a28cd201cd1a051f7e3a3c9b048"),
    (enumerate_connected, 2, 5,
     "625f8be3b26afcdbc8f0eba29b36997e94436e7d41337c7cfca0d6779101ea1b"),
    (enumerate_all, 4, 3,
     "97068c4af16c75d93a59f7b1e461c7eea1f4a6f5000785918aaf4559966b9bd8"),
    (enumerate_all, 3, 4,
     "c9f048ca24ed5bc1edac0160872a3f064ef3cfcfcceca65793feb3a6bba4cdd6"),
    (enumerate_all, 5, 3,
     "ba4e15d2140d7a1e3780996eff6db44a669090dca88bec06bce3ed0f0a6f6a6f"),
    (enumerate_all, 6, 3,
     "3c6ab95ce14dbd917eb4f75bf09ee4d98175384ef94f1520c1f7d32a7ada4b32"),
    (enumerate_all, 4, 4,
     "6e28971c6b1ed44d2babef975377f02d61fd4e5970a4b3c84090e4485bf327c7"),
])
def test_diagram_set_file_bytes_are_pinned(enumerate_fn, m, n, digest):
    assert content_digest(enumerate_fn(m, n).to_text()) == "sha256:" + digest


def test_one_canonical_form_per_diagram(monkeypatch):
    calls = []

    def counting(feet, starts):
        calls.append(feet)
        return orbit(feet, starts)

    monkeypatch.setattr(enumeration, "orbit", counting)
    ds = enumerate_connected(4, 4)
    assert len(ds) == 279
    # one orbit per connected diagram; a disconnected matching is dropped
    # before its orbit is built
    assert len(calls) == 279


def test_one_canonical_form_per_active_block(monkeypatch):
    calls = []

    def counting(feet, starts):
        calls.append(feet)
        return orbit(feet, starts)

    monkeypatch.setattr(enumeration, "orbit", counting)
    budget = Budget()
    ds = enumerate_all(6, 3, budget=budget)
    assert len(ds) == 2170
    # bare circles add nothing to a canonical form: one orbit per diagram
    # whose feet lie on 1, 2, ..., 6 circles, each with at least one foot
    assert len(calls) == 5 + 17 + 38 + 56 + 45 + 15
    # the candidate charge still counts every matching of every starts vector
    assert budget.candidates_used == 15 * 462


def test_time_budget_fires_inside_one_starts_vector():
    # one circle has a single starts vector with 135135 matchings
    began = time.monotonic()
    with pytest.raises(BudgetExceededError):
        enumerate_all(1, 7, budget=Budget(time_budget=0.2))
    assert time.monotonic() - began < 1.5


def _count_matching_walks(monkeypatch):
    """The number of matchings each ``_matchings`` call yields, one entry
    per call, from now on."""
    yielded = []
    matchings = enumeration._matchings

    def counting(size):
        yielded.append(0)
        for feet in matchings(size):
            yielded[-1] += 1
            yield feet

    monkeypatch.setattr(enumeration, "_matchings", counting)
    return yielded


@pytest.mark.parametrize("enumerate_fn, m, n, blocks, size", [
    (enumerate_connected, 4, 4, 35, 279),
    (enumerate_all, 3, 3, 1 + 5 + 10, 104),
])
def test_matchings_generated_once_per_enumeration(monkeypatch, enumerate_fn, m, n,
                                                  blocks, size):
    expected = enumerate_fn(m, n)
    assert len({enumeration.active_starts(d.rep.starts) for d in expected}) == blocks
    yielded = _count_matching_walks(monkeypatch)
    ds = enumerate_fn(m, n)
    # every active block walks the (2n-1)!! matchings of one generation
    assert yielded == [enumeration._double_factorial_odd(n)]
    assert ds == expected and len(ds) == size


def test_time_budget_fires_while_the_first_block_generates_the_matchings(monkeypatch):
    # 13 active blocks share the 135135 matchings, which the first walk
    # generates and keeps for the others
    yielded = _count_matching_walks(monkeypatch)
    began = time.monotonic()
    with pytest.raises(BudgetExceededError):
        enumerate_connected(2, 7, budget=Budget(time_budget=0.2))
    assert time.monotonic() - began < 1.5
    # the budget stopped the one generation part way
    assert len(yielded) == 1 and yielded[0] < 135135


def test_time_budget_fires_while_rejecting_disconnected_matchings(monkeypatch):
    # a clock that the budget reads, run out by the first rejected matching
    clock = [0.0]
    monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    rejected, built = [], []
    components = enumeration.components

    def rejecting(masks, m):
        first = next(components(masks, m))
        if first != (1 << m) - 1:
            rejected.append(tuple(masks))
            clock[0] = 2.0
        return iter([first])

    def counting(feet, starts):
        built.append(feet)
        return orbit(feet, starts)

    monkeypatch.setattr(enumeration, "components", rejecting)
    monkeypatch.setattr(enumeration, "orbit", counting)
    budget = Budget(time_budget=1.0)
    with pytest.raises(BudgetExceededError):
        enumerate_connected(3, 3, budget=budget)
    # the first matching of (3,3), 00 on two one-foot circles and two
    # chords on the third, is disconnected; the next is checked and refused
    assert rejected == [(0b011, 0b100, 0b100)]
    assert built == []


def test_set_size_factors_over_components():
    # the number of all diagrams equals the sum over (partition, composition)
    # pairs of products of connected counts
    from chordbasis.basis import _set_partitions
    from chordbasis.enumeration import _compositions

    for m, n in [(2, 2), (3, 2), (2, 3)]:
        conn_sizes = {}
        for r in range(1, m + 1):
            for s in range(0, n + 1):
                conn_sizes[(r, s)] = len(enumerate_connected(r, s))
        total = 0
        for partition in _set_partitions(list(range(m))):
            for chords in _compositions(n, len(partition), 0):
                prod = 1
                for part, ni in zip(partition, chords):
                    prod *= conn_sizes[(len(part), ni)]
                total += prod
        assert total == len(enumerate_all(m, n))


@pytest.mark.parametrize("kwargs", [
    {"time_budget": float("nan")},
    {"time_budget": -1},
    {"max_candidates": -1},
    {"max_matrix_cells": -1},
])
def test_budget_refuses_values_that_mean_nothing(kwargs):
    with pytest.raises(DiagramError):
        Budget(**kwargs)


def test_zero_budget_values_are_accepted():
    budget = Budget(max_candidates=0, max_matrix_cells=0, time_budget=0)
    budget.check_time()  # a zero time budget is unlimited
    with pytest.raises(BudgetExceededError):
        budget.charge_candidates(1)


def test_budget_error_on_tiny_cap():
    with pytest.raises(BudgetExceededError):
        enumerate_connected(2, 4, budget=Budget(max_candidates=10))


def test_serialization_roundtrip():
    ds = enumerate_connected(2, 3)
    text = ds.to_text()
    assert text.startswith("m=2 n=3 connected=1 count=")
    assert DiagramSet.from_text(text) == ds


def test_serialization_detects_truncation():
    ds = enumerate_connected(2, 2)
    text = ds.to_text()
    clipped = "\n".join(text.split("\n")[:-2]) + "\n"
    with pytest.raises(DiagramError):
        DiagramSet.from_text(clipped)


def _swap_two_lines(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _repeat_a_line(lines):
    lines[2] = lines[1]  # a 13-line "set" of 12 distinct diagrams


def _rotate_a_line(lines):
    # the same diagram, not in its canonical form
    lines[1] = "|".join(block[1:] + block[:1] for block in lines[1].split("|"))
    assert diagram(lines[1]) == enumerate_connected(2, 3).diagrams[0]
    assert lines[1] != str(enumerate_connected(2, 3).diagrams[0])


@pytest.mark.parametrize("redigest", [False, True], ids=["stale-digest", "fresh-digest"])
@pytest.mark.parametrize("edit", [_swap_two_lines, _repeat_a_line, _rotate_a_line])
def test_serialization_accepts_only_the_written_text(edit, redigest):
    lines = enumerate_connected(2, 3).to_text().split("\n")
    edit(lines)
    if redigest:
        body = "".join(line + "\n" for line in lines[1:-1])
        lines[0] = lines[0].rsplit(" digest=", 1)[0] + f" digest={content_digest(body)}"
    with pytest.raises(DiagramError):
        DiagramSet.from_text("\n".join(lines))


def test_serialization_refuses_diagrams_the_header_rules_out():
    disconnected, other_n = diagram("001122|"), diagram("0011|")
    for ds in (DiagramSet(2, 3, True, (disconnected,)), DiagramSet(2, 3, False, (other_n,))):
        with pytest.raises(DiagramError):
            DiagramSet.from_text(ds.to_text())
    ds = DiagramSet(2, 3, False, (disconnected,))
    assert DiagramSet.from_text(ds.to_text()) == ds


def test_index_lookup():
    ds = enumerate_connected(2, 2)
    d = ds.diagrams[1]
    assert ds.index_of(d) == 1
    with pytest.raises(DiagramError):
        ds.index_of(diagram("0|0"))


def test_rejects_bad_parameters():
    with pytest.raises(DiagramError):
        enumerate_all(0, 1)
    with pytest.raises(DiagramError):
        enumerate_all(1, -1)


def test_serialization_roundtrip_empty_diagram():
    # the bare one-circle diagram serializes as an empty body line
    ds = enumerate_all(1, 0)
    assert DiagramSet.from_text(ds.to_text()) == ds
    ds2 = enumerate_all(2, 0)
    assert DiagramSet.from_text(ds2.to_text()) == ds2


def test_single_circle_counts_match_classical_sequence():
    # numbers of distinct one-circle diagrams: 1, 2, 5, 18, 105
    assert [len(enumerate_all(1, n)) for n in range(1, 6)] == [1, 2, 5, 18, 105]


def test_enumerated_diagrams_are_not_validated(monkeypatch):
    # the walk builds each diagram from canonical feet, valid by construction
    calls = []
    validate = diagrams.validate

    def counting(feet, starts):
        calls.append(feet)
        validate(feet, starts)

    monkeypatch.setattr(diagrams, "validate", counting)
    assert len(enumerate_connected(3, 4)) == 177
    assert len(enumerate_all(4, 3)) == 330
    assert calls == []
