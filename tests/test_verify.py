"""The full-dimension and polynomial checks fail when the numbers they
guard regress, ``chordbasis verify`` reports the published errata, and
the checks run under the invocation's budget."""

import time
from fractions import Fraction

import pytest

from chordbasis import basis as B
from chordbasis import verify as V
from chordbasis.basis import (
    PUBLISHED_A_ERRATA,
    REFERENCE_A_DIMS,
    REFERENCE_C_DIMS,
    dim_A,
)
from chordbasis.budget import Budget
from chordbasis.cli import main
from chordbasis.errors import BudgetExceededError


def _shift_dim_A(monkeypatch, cell, change):
    real = V.dim_A

    def patched(m, n, table):
        out = real(m, n, table)
        return change(out) if (m, n) == cell else out

    monkeypatch.setattr(V, "dim_A", patched)


def test_full_dims_fails_on_formula_regression_outside_errata(monkeypatch):
    _shift_dim_A(monkeypatch, (2, 3), lambda v: v + 1)
    result = V.check_full_dims(direct_cells=())
    assert not result.passed
    assert "A[m=2,n=3]: formula=20 published=19" in result.detail


def test_full_dims_fails_when_direct_rank_disagrees(monkeypatch):
    _shift_dim_A(monkeypatch, (4, 3), lambda v: v + 1)
    result = V.check_full_dims(direct_cells=((4, 3),))
    assert not result.passed
    assert "A[m=4,n=3]: formula=271 direct-rank=270" in result.detail


def test_full_dims_fails_when_an_erratum_vanishes(monkeypatch):
    _shift_dim_A(monkeypatch, (6, 5), lambda v: REFERENCE_A_DIMS[(6, 5)])
    result = V.check_full_dims(direct_cells=())
    assert not result.passed
    assert "A[m=6,n=5]: formula=81149 equals the published value" in result.detail


def test_polynomials_fail_on_changed_low_order_form(monkeypatch):
    real = V.eval_A_polynomial

    def patched(n, m):
        return real(n, m) + (Fraction(1, 2) if n == 2 else 0)

    monkeypatch.setattr(V, "eval_A_polynomial", patched)
    result = V.check_polynomials()
    assert not result.passed
    assert "poly-A[n=2,m=1]: polynomial=5/2 published=2" in result.detail


def test_direct_rank_honours_budget():
    assert V._direct_dim_A(2, 2) == 8
    with pytest.raises(BudgetExceededError):
        V._direct_dim_A(4, 3, budget=Budget(max_candidates=10))
    with pytest.raises(BudgetExceededError):
        V._direct_dim_A(4, 3, budget=Budget(max_matrix_cells=1))


def test_verify_fast_lists_errata(tmp_path, capsys):
    code = main(["--cache", str(tmp_path / "cache"), "verify", "--profile", "fast"])
    out = capsys.readouterr().out
    checks = [ln for ln in out.splitlines() if ln.startswith(("PASS ", "FAIL "))]
    assert len(checks) == 10
    assert (code == 0) == all(ln.startswith("PASS ") for ln in checks)
    line = next(ln for ln in checks if "full-dims-table" in ln)
    assert line.startswith("PASS ")
    for m, n in sorted(PUBLISHED_A_ERRATA):
        formula = dim_A(m, n, REFERENCE_C_DIMS)
        published = REFERENCE_A_DIMS[(m, n)]
        assert f"A[m={m},n={n}] formula={formula} published={published} " in line
    for (m, n), rank in (((4, 3), 270), ((5, 3), 770), ((6, 3), 1918),
                         ((4, 4), 1063), ((5, 4), 3930), ((6, 4), 12521)):
        published = REFERENCE_A_DIMS[(m, n)]
        assert (f"A[m={m},n={n}] formula={rank} published={published} "
                f"direct-rank={rank}") in line


def test_polynomials_fail_when_an_inherited_erratum_vanishes(monkeypatch):
    real = B.dim_A

    def patched(m, n, table):
        return REFERENCE_A_DIMS[(4, 3)] if (m, n) == (4, 3) else real(m, n, table)

    monkeypatch.setattr(B, "dim_A", patched)
    result = V.check_polynomials()
    assert not result.passed
    assert ("poly-A[n=3,m=4]: agrees with the formula at a published erratum"
            in result.detail)


def test_order5_check_honours_a_passed_budget():
    with pytest.raises(BudgetExceededError):
        V.check_order5_connected(live=True, budget=Budget(max_candidates=10))


def test_verify_full_stops_promptly_on_the_invocation_time_budget(tmp_path):
    start = time.monotonic()
    assert main(["--cache", str(tmp_path / "cache"), "--time-budget", "3",
                 "verify", "--profile", "full"]) == 3
    assert time.monotonic() - start < 15
