"""The full-dimension and polynomial checks fail when the numbers they
guard regress, ``chordbasis verify`` reports the published errata, and
the checks run under the invocation's budget."""

import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from chordbasis import basis as B
from chordbasis import symmetry as S
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
from chordbasis.relations import Relation


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


def test_polynomials_name_the_first_binomial_coefficient_each_form_gets_wrong():
    detail = V.check_polynomials().detail
    for text in ("binomial-basis n=3: D_4 form=58 formula=52",
                 "binomial-basis n=4: D_4 form=381 formula=339",
                 "binomial-basis n=5: D_1 form=-21575/192 formula=10"):
        assert text in detail
    assert detail.count("binomial-basis") == 3


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


def test_component_rows_fail_on_a_row_that_mixes_components(monkeypatch):
    # a row joining the first and last diagram of each set: every connected
    # set has one component profile, so only the active sets can catch it
    real = V.generate_relations

    def with_mixed_row(ds, **kwargs):
        return real(ds, **kwargs) + [Relation(((0, 1), (len(ds) - 1, -1)))]

    monkeypatch.setattr(V, "generate_relations", with_mixed_row)
    result = V.check_component_rows(n_max=3)
    assert not result.passed
    assert "(m=3, n=3) row" in result.detail


def test_tree_count_guards_count_distinct_diagrams(tmp_path, capsys, monkeypatch):
    # the second tree built on m circles collides with the first, so one
    # Pruefer sequence's diagram is missing while the list keeps its length
    real = S.diagram_from_multigraph
    made = {}

    def collide(edges, m):
        trees = made.setdefault(m, [])
        trees.append(real(edges, m))
        return trees[0] if len(trees) == 2 else trees[-1]

    monkeypatch.setattr(S, "diagram_from_multigraph", collide)
    assert main(["--cache", str(tmp_path / "cache"), "equivariant", "3", "2"]) == 1
    assert "tree count mismatch" in capsys.readouterr().err
    made.clear()
    result = V.check_order5_connected(live=False)
    assert not result.passed and "tree count 1295" in result.detail
    made.clear()
    result = V.check_tree_basis(verify_n_max=0)
    assert not result.passed and "|tree_basis(2)| = 2" in result.detail


def test_checks_are_timed_on_the_monotonic_performance_clock(monkeypatch):
    # a namespace without time.time: a check that read the wall clock,
    # which can jump, would raise here
    ticks = iter([10.0, 12.25])
    monkeypatch.setattr(V, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    result = V.check_rref_oracle(cases=3)
    assert result.passed
    assert result.seconds == 2.25


def test_rref_oracle_draws_matrices_rich_in_short_rows(monkeypatch):
    drawn = []
    real = V.rref

    def recording(mat):
        drawn.append(mat)
        return real(mat)

    monkeypatch.setattr(V, "rref", recording)
    assert V.check_rref_oracle(cases=100).passed
    assert len(drawn) == 100
    # every other case is drawn with rows of mostly one or two terms; 100
    # dense draws alone give 8 such matrices with 8 or more columns
    short = [mat for mat in drawn if mat.ncols >= 8
             and 2 * sum(len(row) <= 2 for row in mat.rows) > len(mat.rows)]
    assert len(short) >= 20
