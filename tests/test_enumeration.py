import itertools
import time

import pytest

from chordbasis import enumeration
from chordbasis.budget import Budget
from chordbasis.diagrams import diagram, is_connected, orbit, permute_circles
from chordbasis.enumeration import (
    DiagramSet,
    enumerate_all,
    enumerate_all_naive,
    enumerate_connected,
)
from chordbasis.errors import BudgetExceededError, DiagramError
from chordbasis.util import content_digest


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
    # one orbit per diagram on the walked starts, connected or not: the
    # 279 connected diagrams and 260 disconnected orbits, marked as seen
    assert len(calls) == 279 + 260


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
