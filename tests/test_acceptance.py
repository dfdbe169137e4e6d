"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Set CHORDBASIS_ACCEPT_PROFILE=fast to replace the live order-5 row of
criterion 2 with its sanctioned budgeted fallback (the independent
tree-count cross-check plus the resource-error contract); the default
profile recomputes the full row live under the one-hour budget.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chordbasis.budget import Budget
from chordbasis.basis import dim_C
from chordbasis.errors import BudgetExceededError
from chordbasis import verify as V

PROFILE = os.environ.get("CHORDBASIS_ACCEPT_PROFILE", "full")


def _report(result) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.name}: {status} [{result.seconds:.1f}s] {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_01_connected_table_live():
    # every (m, n) with n <= 4, m <= 5 recomputed end to end, exact equality
    _report(V.check_connected_dims(n_max=4))


def test_criterion_02_order5_row():
    # the budget-exceeded contract: a too-small cap raises, never a number
    with pytest.raises(BudgetExceededError):
        dim_C(2, 5, budget=Budget(max_candidates=10))
    live = PROFILE != "fast"
    _report(V.check_order5_connected(live=live))


def test_criterion_03_full_dimension_table():
    _report(V.check_full_dims())


def test_criterion_04_closed_form_polynomials():
    _report(V.check_polynomials())


def test_criterion_05_tree_basis_cayley():
    _report(V.check_tree_basis(verify_n_max=4))


def test_criterion_06_canonical_form_properties():
    _report(V.check_canonical_roundtrips(iterations=10000))


def test_criterion_07_component_preservation():
    _report(V.check_component_rows(n_max=4))


def test_criterion_08_rref_oracle_equivalence():
    _report(V.check_rref_oracle(cases=500))


def test_criterion_09_equivariantization_two_circles():
    _report(V.check_equivariantization(n_max=4))


def test_criterion_10_orbit_structure_3_3():
    _report(V.check_orbit_structure_33())


def test_criterion_11_determinism_across_thread_counts(tmp_path):
    # two cold fast-profile verify runs with different worker counts must
    # leave byte-identical artifact files behind
    trees = {}
    for label, threads in (("a", 1), ("b", 4)):
        cache = tmp_path / label
        proc = subprocess.run(
            [sys.executable, "-m", "chordbasis", "--cache", str(cache),
             "--threads", str(threads), "verify", "--profile", "fast"],
            capture_output=True, text=True, timeout=1800,
        )
        assert proc.returncode in (0, 1), proc.stderr
        trees[label] = {
            p.name: p.read_bytes() for p in sorted(cache.iterdir())
        }
    assert trees["a"].keys() == trees["b"].keys()
    assert len(trees["a"]) >= 9  # diagrams, relations, basis per (m, n)
    mismatched = [k for k in trees["a"] if trees["a"][k] != trees["b"][k]]
    print(f"ACCEPTANCE determinism: {'PASS' if not mismatched else 'FAIL'} "
          f"({len(trees['a'])} artifact files compared)")
    assert not mismatched, f"artifact files differ across thread counts: {mismatched}"
