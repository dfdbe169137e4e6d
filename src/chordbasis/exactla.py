"""Exact sparse linear algebra over the rationals.

Rows stay integer end to end: every assembled matrix keeps each row once
and ``assemble`` stores its integer coefficients as given, the sparse
eliminator combines rows by integer cross-multiplication and divides each
result by its gcd, and rationals appear only when the final RREF is
normalized.  Every production solve
(rank and RREF) runs this eliminator.  A naive dense Fraction eliminator
and a modular rank are independent oracles only; the RREF of a row space
is unique, so all routes must agree exactly.

:class:`Relation` is the sparse integer row that relation generation
yields and :func:`assemble` reads; it lives here so that this layer
imports nothing above it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .budget import Budget, ensure_budget
from .errors import ChordBasisError


@dataclass(frozen=True, slots=True)
class Relation:
    """A sparse integer row over a DiagramSet: ((column, coefficient), ...).

    Where a row came from is a function of its position in the generation
    order, so it is derived when the relations file is written, not stored.
    """

    coeffs: tuple[tuple[int, int], ...]

    def is_zero(self) -> bool:
        return not self.coeffs


# (column, value) pairs; integers from ``assemble``, Fractions in an RREF
Row = tuple[tuple[int, int | Fraction], ...]
# (pivot column, integer row) pairs in pivot order
Echelon = list[tuple[int, dict[int, int]]]


@dataclass(frozen=True)
class ExactMatrix:
    """Row-major sparse matrix; within a row column indices increase and no
    zero entry is stored."""

    rows: tuple[Row, ...]
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class RrefResult:
    matrix: ExactMatrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def assemble(rows: Iterable[Relation | dict[int, int]], ncols: int) -> ExactMatrix:
    """Build an integer matrix from relation rows, each row once: empty rows
    and rows equal up to sign to an earlier one are dropped, which leaves
    the row space, its RREF and its pivots as they are."""
    first: dict[Row, Row] = {}  # kept rows by their form with a positive lead
    for row in rows:
        items = row.coeffs if isinstance(row, Relation) else sorted(row.items())
        entries = []
        for col, coef in items:
            if not 0 <= col < ncols:
                raise ChordBasisError(f"column index {col} out of range 0..{ncols - 1}")
            if coef:
                entries.append((col, coef))
        if entries:
            kept = tuple(entries)
            first.setdefault(kept if kept[0][1] > 0 else tuple((c, -v) for c, v in kept), kept)
    return ExactMatrix(tuple(first.values()), ncols)


def _integer_rows(mat: ExactMatrix) -> list[dict[int, int]]:
    """Each row cleared of denominators (integer rows have none) and
    divided by the gcd of its entries."""
    rows = []
    for row in mat.rows:
        scale = lcm(*(v.denominator for _, v in row))
        rows.append(_primitive({c: int(v * scale) for c, v in row}))
    return rows


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _cancel(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """The primitive integer combination of ``row`` and ``pivot`` whose
    entry in column ``col`` is zero: cross-multiply, then divide by the gcd."""
    g = gcd(pivot[col], row[col])
    pf, rf = pivot[col] // g, row[col] // g
    new = {c: v * pf for c, v in row.items()}
    for c, v in pivot.items():
        w = new.get(c, 0) - v * rf
        if w:
            new[c] = w
        elif c in new:
            del new[c]
    return _primitive(new)


def _forward_eliminate(int_rows: list[dict[int, int]], ncols: int,
                       budget: Budget | None = None) -> Echelon:
    """Column-ordered elimination; returns (pivot column, row) in pivot order.

    Rows are bucketed by leading column; at each column the sparsest row
    becomes the pivot, a tie going to the row whose last column is largest
    (its fill lands furthest right), and the rest are combined against it
    with integer cross-multiplication and gcd reduction.  Every elimination
    passes through here, so the matrix-cell budget is checked here.
    """
    budget = ensure_budget(budget)
    budget.check_cells(len(int_rows), ncols)
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in int_rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    echelon: list[tuple[int, dict[int, int]]] = []
    for col in range(ncols):
        rows_here = buckets.pop(col, None)
        if not rows_here:
            continue
        budget.check_time()
        rows_here.sort(key=lambda r: (len(r), -max(r)))
        pivot = rows_here[0]
        echelon.append((col, pivot))
        for row in rows_here[1:]:
            new = _cancel(row, pivot, col)
            if new:
                buckets.setdefault(min(new), []).append(new)
    return echelon


def echelon_form(mat: ExactMatrix, budget: Budget | None = None) -> Echelon:
    """The forward pass alone: integer rows in echelon form, each with its
    pivot column, in pivot order."""
    return _forward_eliminate(_integer_rows(mat), mat.ncols, budget)


def pivot_columns(mat: ExactMatrix, budget: Budget | None = None) -> tuple[int, ...]:
    """Pivot columns of the RREF, via the forward pass only."""
    return tuple(col for col, _ in echelon_form(mat, budget))


def back_substitute(echelon: Echelon, ncols: int,
                    budget: Budget | None = None) -> RrefResult:
    """The RREF from a forward echelon form, right to left, staying in
    integers until the rows are normalized; ``echelon`` is not modified.

    A row's entries lie right of its pivot, so it can hold only the pivot
    columns of later rows.  Each of those is cancelled against its row,
    already reduced: a reduced row holds no pivot column but its own, so a
    cancel never brings in another.  The time budget is checked once per
    echelon row."""
    budget = ensure_budget(budget)
    reduced: dict[int, dict[int, int]] = {}  # pivot column -> reduced row
    for col, row in reversed(echelon):
        budget.check_time()
        for c in [c for c in row if c in reduced]:
            row = _cancel(row, reduced[c], c)
        reduced[col] = row
    rref_rows = []
    for col, _ in echelon:
        row = reduced[col]
        lead = Fraction(row[col])
        rref_rows.append(tuple((c, Fraction(v) / lead) for c, v in sorted(row.items())))
    pivots = tuple(col for col, _ in echelon)
    return RrefResult(ExactMatrix(tuple(rref_rows), ncols), pivots)


def rref(mat: ExactMatrix, budget: Budget | None = None) -> RrefResult:
    """The unique reduced row echelon form of the row space of ``mat``."""
    return back_substitute(echelon_form(mat, budget), mat.ncols, budget)


def rref_dense(mat: ExactMatrix) -> RrefResult:
    """Textbook dense Gauss-Jordan over Fractions; the independent oracle."""
    rows = [[Fraction(0)] * mat.ncols for _ in range(mat.nrows)]
    for i, row in enumerate(mat.rows):
        for c, v in row:
            rows[i][c] = Fraction(v)
    pivots: list[int] = []
    r = 0
    for col in range(mat.ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    out = []
    for i in range(r):
        out.append(tuple((c, v) for c, v in enumerate(rows[i]) if v != 0))
    return RrefResult(ExactMatrix(tuple(out), mat.ncols), tuple(pivots))


def rank_modular(mat: ExactMatrix, prime: int) -> int:
    """Rank of the matrix over GF(prime); a probabilistic cross-check."""
    rows = []
    for row in mat.rows:
        d = {}
        for c, v in row:
            x = v.numerator * pow(v.denominator, -1, prime) % prime
            if x:
                d[c] = x
        if d:
            rows.append(d)
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        buckets.setdefault(min(row), []).append(row)
    rank = 0
    for col in range(mat.ncols):
        rows_here = buckets.pop(col, None)
        if not rows_here:
            continue
        rows_here.sort(key=lambda r: (len(r), -max(r)))  # as _forward_eliminate
        pivot = rows_here[0]
        inv = pow(pivot[col], -1, prime)
        rank += 1
        for row in rows_here[1:]:
            f = row[col] * inv % prime
            new = {}
            for c, v in row.items():
                w = (v - f * pivot.get(c, 0)) % prime
                if w:
                    new[c] = w
            for c, v in pivot.items():
                if c not in row:
                    w = -f * v % prime
                    if w:
                        new[c] = w
            if new:
                buckets.setdefault(min(new), []).append(new)
    return rank


def express_pivots(result: RrefResult) -> dict[int, tuple[tuple[int, Fraction], ...]]:
    """For each pivot column p with RREF row rho: x_p = -sum rho_q x_q over
    the non-pivot columns q.  Substituting these makes every row vanish."""
    pivot_set = set(result.pivots)
    out: dict[int, tuple[tuple[int, Fraction], ...]] = {}
    for pcol, row in zip(result.pivots, result.matrix.rows):
        expr = tuple((c, -v) for c, v in row if c != pcol)
        if any(c in pivot_set for c, _ in expr):
            raise ChordBasisError("RREF row has a nonzero entry in another pivot column")
        out[pcol] = expr
    return out


def _is_probable_prime(num: int) -> bool:
    if num < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if num % p == 0:
            return num == p
    d = num - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for num < 3.3e24 with these witnesses
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, num)
        if x in (1, num - 1):
            continue
        for _ in range(s - 1):
            x = x * x % num
            if x == num - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(cand):
            return cand

