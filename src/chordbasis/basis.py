"""Bases and dimensions of the diagram spaces modulo the four-term relation.

``quotient`` is the one pipeline from (m, n) to an eliminated quotient:
enumerate the diagrams, build each four-term row once
(``relations.relation_classes``), assemble them, which keeps each row
once (``exactla.assemble``), run the forward elimination, and memoize the
result per (m, n, connected), or per (m, n, "unframed") for the diagrams
without an isolated chord.
Dimensions and bases derive from it: ``connected_basis`` keeps the
non-pivot diagrams as the basis, and each pivot diagram carries an
expression over the basis.

Connected dimensions split off isolated chords.  A chord is *isolated*
when its two feet are cyclically adjacent on one circle.  Let U(m, n) be
the connected (m, n) space modulo the four-term and the one-term relation,
which sets every diagram with an isolated chord to zero.  Then

    C(m, n) = sum over k of binom(m+k-1, k) * U(m, n-k),

with U(1, 0) = 1 and U(m, s) = 0 for s < m - 1 (Bar-Natan, *On the
Vassiliev knot invariants*, Topology 1995, for one circle: the framed
algebra is the unframed one tensored with the polynomials in the isolated
chord).  For m circles:

* Let theta_i insert an isolated chord on circle i.  The family-A row
  whose moving foot x sits just before an isolated chord t reads
  S - S' + S' - X_after: the isolated chord hops over x.  So theta_i is
  well defined modulo 4T, and it maps four-term rows to four-term rows.
* Let d_i(D) be the sum of D without c, over the chords c with both feet
  on circle i.  Deleting such a chord keeps D connected.  Deleting the
  target chord, or the moving chord, of a four-term row cancels its terms
  in pairs, so d_i is well defined modulo 4T.
* Then [d_i, theta_j] = 1 if i = j and 0 otherwise; the theta commute, and
  so do the d.  Each d lowers the degree, so it is locally nilpotent, and
  the Weyl-algebra lemma gives C = Q[theta_1..theta_m] (x) K with K the
  intersection of the kernels of the d_i.  The projection onto K is
  sum over k of (-theta_i)^k d_i^k / k!, taken one circle at a time.
* The ideal (theta)C is spanned by the diagrams with an isolated chord,
  so K = C/(theta)C = U, and a monomial of degree k in m variables, of
  which there are binom(m+k-1, k), raises the degree by k.
* U is the quotient of the diagrams without an isolated chord by the
  four-term rows with their isolated terms dropped
  (``quotient(m, n, unframed=True)``).  Rows built at those diagrams
  alone suffice: each of a row's four terms is a source of that row up to
  sign (the identities in the ``relations`` docstring), and a row whose
  terms are all isolated vanishes modulo the one-term relation.

``dim_C`` sums this splitting, and its U quotients hold about a third of
the diagrams and rows of the direct one.  Bases, expressions and every
file stay on the direct quotient of all connected diagrams: a basis is a
set of its non-pivot diagrams.  ``verify`` compares both routes.
Dimensions of the full (not necessarily connected) spaces are computed from
connected dimensions by the component-decomposition formula: every diagram
splits into connected components, so

    dim_full(m, n) = sum over c of 1/c! *
        sum over ordered size vectors m_1+..+m_c = m of multinomial(m; m_i) *
        sum over ordered n_1+..+n_c = n of prod_i dim_conn(m_i, n_i)

with the conventions dim_conn(r, s) = 0 for s < r-1 and dim_conn(1, 0) = 1.
The ordered double sum counts every unordered (partition, composition) pair
exactly c! times, so the division is always exact (asserted).

``REFERENCE_C_DIMS`` / ``REFERENCE_A_DIMS`` hold previously published
dimension values used by fast verification profiles and cross-checking;
``eval_A_polynomial`` evaluates published closed-form polynomials for the
full dimensions, which are treated as claims to verify against the formula
above, never as ground truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, factorial
from typing import Iterator, Mapping, NamedTuple, Sequence

from .budget import Budget, QuotientKey, ensure_budget
from .cache import artifact_intact, artifact_text, basis_name, header_fields
from .diagrams import ChordDiagram, canonicalize, disjoint_union, is_connected, parse
from .enumeration import DiagramSet, _compositions, _enumerate, enumerate_connected
from .errors import ChordBasisError, DiagramError
from .exactla import (Echelon, Relation, assemble, back_substitute, echelon_form,
                      express_pivots)
from .relations import generate_relations, relation_classes

Combination = dict[ChordDiagram, Fraction]


@dataclass(frozen=True)
class BasisResult:
    diagram_set: DiagramSet
    pivots: tuple[int, ...]
    basis: tuple[ChordDiagram, ...]
    expressions: Mapping[ChordDiagram, tuple[tuple[ChordDiagram, Fraction], ...]]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_index(self) -> dict[ChordDiagram, int]:
        """Position of every basis diagram in ``basis``."""
        return {d: i for i, d in enumerate(self.basis)}


@dataclass
class Quotient:
    """The (m, n) diagrams modulo the four-term relation: the diagram set
    and the forward echelon form of its relation rows, with what building
    them charged to a budget (enumeration ``candidates``; the relation rows
    ``assemble`` kept, each row once, and the columns as ``cells``), which
    a budget pays once.  The rows themselves are not kept."""

    diagram_set: DiagramSet
    echelon: Echelon
    candidates: int
    cells: tuple[int, int]
    _basis: BasisResult | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.diagram_set) - len(self.echelon)

    def basis(self, budget: Budget | None = None) -> BasisResult:
        """The non-pivot diagrams, and every pivot diagram expressed over
        them; back-substitution runs on first use only, under the budget of
        that first caller."""
        if self._basis is None:
            ds = self.diagram_set
            result = back_substitute(self.echelon, len(ds), budget)
            pivot_set = set(result.pivots)
            basis = tuple(d for i, d in enumerate(ds.diagrams) if i not in pivot_set)
            expressions = {
                ds.diagrams[pcol]: tuple((ds.diagrams[c], coef) for c, coef in expr)
                for pcol, expr in express_pivots(result).items()
            }
            self._basis = BasisResult(ds, result.pivots, basis, expressions)
        return self._basis


_MEMO: dict[QuotientKey, Quotient] = {}


def clear_memo() -> None:
    """Drop the in-process quotient memo (used between determinism runs)."""
    _MEMO.clear()


def quotient(m: int, n: int, connected: bool = True,
             budget: Budget | None = None,
             rows: list[Relation] | None = None,
             unframed: bool = False) -> Quotient:
    """Enumerate, relate and forward-eliminate the connected (m, n)
    diagrams, or with ``connected=False`` the active ones, which carry a
    foot on every circle (``diagrams.active_starts``: every (m, n) diagram
    is an active one on some k <= m circles, placed among m - k bare ones),
    or with ``unframed`` the connected ones without an isolated chord, whose
    rows drop every isolated term (the U quotient of the module docstring);
    memoized per (m, n, connected), or (m, n, "unframed").  It eliminates
    the four-term rows as built, without their copies
    (``relation_classes``): the same matrix.
    Enumeration's orbit maps, which the rows are built from, are dropped
    before assembly, so the memoized set holds no orbit image.

    A caller that also needs the full four-term list, as the relations file
    does, passes the list ``rows``.  A memo miss then relates the full list
    instead, appends it to ``rows`` and eliminates it, the same matrix; a
    memo hit leaves ``rows`` as it is.

    A budget pays for each key once: a memo hit charges what the cold build
    did unless it has paid, so a cap too small fails the same warm or cold.
    """
    key: QuotientKey = (m, n, "unframed" if unframed else connected)
    budget = ensure_budget(budget)
    q = _MEMO.get(key)
    if q is None:
        used = budget.candidates_used
        if unframed:
            ds = _enumerate(m, n, True, budget, unframed=True)
        elif connected:
            ds = enumerate_connected(m, n, budget=budget)
        else:
            ds = _enumerate(m, n, False, budget, active_only=True)
        candidates = budget.candidates_used - used
        relate = relation_classes if rows is None else generate_relations
        related = relate(ds, budget=budget)
        ds.release_orbit_maps()  # the rows are built
        if rows is not None:
            rows.extend(related)
        mat = assemble(related, len(ds))
        del related  # the rows no caller keeps go before the elimination
        q = _MEMO[key] = Quotient(ds, echelon_form(mat, budget=budget), candidates,
                                  (mat.nrows, mat.ncols))
    elif key not in budget.paid:
        budget.charge_candidates(q.candidates)
        budget.check_cells(*q.cells)
    budget.paid.add(key)
    return q


def connected_set(m: int, n: int, budget: Budget | None = None) -> DiagramSet:
    """The connected (m, n) diagram set, without an elimination: the set of
    the memoized quotient when there is one, which charges the budget as a
    memo hit does, else an enumerated set."""
    if (m, n, True) in _MEMO:
        return quotient(m, n, budget=budget).diagram_set
    return enumerate_connected(m, n, budget=budget)


def connected_basis(m: int, n: int, budget: Budget | None = None) -> BasisResult:
    """Basis of the connected space: the non-pivot diagrams, plus an
    expression for every pivot diagram over the basis."""
    return quotient(m, n, budget=budget).basis(budget)


def express(d: ChordDiagram, b: BasisResult) -> Combination:
    """Coordinates of (the class of) ``d`` over ``b.basis``."""
    b.diagram_set.index_of(d)  # raises DiagramError when unknown
    if d in b.expressions:
        return {diag: coef for diag, coef in b.expressions[d]}
    return {d: Fraction(1)}


def dim_C(m: int, n: int, budget: Budget | None = None) -> int:
    """Dimension of the connected space, by the isolated-chord splitting
    (module docstring): C(m, n) = sum over k of binom(m+k-1, k) *
    U(m, n-k), the U from the quotients without isolated chords
    (:func:`dim_U`); 0 without enumeration when n < m - 1, since a
    connected diagram on m circles needs m - 1 chords.  The direct quotient
    of every connected diagram, ``quotient(m, n).dimension``, gives the same
    number, and ``verify`` checks that it does."""
    if m < 1 or n < 0:
        raise DiagramError(f"bad parameters m={m}, n={n}")
    return sum(comb(m + k - 1, k) * dim_U(m, n - k, budget) for k in range(n - m + 2))


def dim_U(m: int, n: int, budget: Budget | None = None) -> int:
    """Dimension of the connected space modulo four-term and one-term
    relations, the quotient of the connected diagrams without an isolated
    chord (``quotient(m, n, unframed=True)``); 1 for the chordless circle
    and 0 when n < m - 1, both without enumeration."""
    if n < m - 1:
        return 0
    if n == 0:
        return 1
    return quotient(m, n, budget=budget, unframed=True).dimension


def block_dims(n: int, k_max: int | None = None,
               budget: Budget | None = None) -> list[int]:
    """D_0(n), D_1(n), ..., D_2n(n), or only up to D_k_max(n) when k_max is
    smaller: D_k(n) is the dimension of the active diagrams on k circles,
    each circle carrying a foot (``quotient(k, n, connected=False)``).

    The four-term relation never moves a foot to a bare circle, so
    A(m, n) = sum over k of binom(m, k) * D_k(n), and D_k(n) = 0 for
    k > 2n; D_0(0) = 1 (the diagram without chords) and D_0(n) = 0 else.
    """
    if n < 0:
        raise DiagramError(f"bad chord count n={n}")
    top = 2 * n if k_max is None else min(k_max, 2 * n)
    return [int(n == 0)] + [quotient(k, n, connected=False, budget=budget).dimension
                            for k in range(1, top + 1)]


# Published connected dimensions (columns m = 1.., rows n = 1..5); used for
# cross-checks and by fast profiles that skip the order-5 live computation.
REFERENCE_C_DIMS: dict[tuple[int, int], int] = {
    (1, 1): 1, (2, 1): 1,
    (1, 2): 2, (2, 2): 3, (3, 2): 3,
    (1, 3): 3, (2, 3): 9, (3, 3): 16, (4, 3): 16,
    (1, 4): 6, (2, 4): 22, (3, 4): 67, (4, 4): 127, (5, 4): 125,
    (1, 5): 10, (2, 5): 55, (3, 5): 229, (4, 5): 699, (5, 5): 1347, (6, 5): 1296,
}

# Published full-space dimensions for m <= 6, n <= 5.
REFERENCE_A_DIMS: dict[tuple[int, int], int] = {
    (1, 1): 1, (2, 1): 3, (3, 1): 6, (4, 1): 10, (5, 1): 15, (6, 1): 21,
    (1, 2): 2, (2, 2): 8, (3, 2): 24, (4, 2): 59, (5, 2): 125, (6, 2): 237,
    (1, 3): 3, (2, 3): 19, (3, 3): 80, (4, 3): 276, (5, 3): 815, (6, 3): 2088,
    (1, 4): 6, (2, 4): 44, (3, 4): 241, (4, 4): 1105, (5, 4): 4340, (6, 4): 14486,
    (1, 5): 10, (2, 5): 99, (3, 5): 682, (4, 5): 3921, (5, 5): 19468, (6, 5): 81149,
}

# Cells of REFERENCE_A_DIMS that disagree with the component-decomposition
# formula.  A direct rank over all diagrams (the exact ranks of the active
# sets, summed over the placements of the bare circles) sides with the
# formula at every one: A(4,3) = 270, A(5,3) = 770, A(6,3) = 1918,
# A(4,4) = 1063, A(5,4) = 3930, A(6,4) = 12521, A(4,5) = 3793,
# A(5,5) = 17648 and A(6,5) = 70274; verify.check_full_dims recomputes these.
PUBLISHED_A_ERRATA: frozenset[tuple[int, int]] = frozenset(
    (m, n) for m in (4, 5, 6) for n in (3, 4, 5)
)


def dim_table_C(n_max: int, m_max: int, budget: Budget | None = None,
                bundled_n: Sequence[int] = ()) -> dict[tuple[int, int], int]:
    """Connected dimensions (m, n) -> dim_C(m, n) for 1 <= n <= n_max,
    1 <= m <= m_max.

    Rows listed in ``bundled_n`` take the published reference values
    instead of live computation; their structural zeros come from ``dim_C``.
    """
    if n_max < 1 or m_max < 1:
        raise DiagramError(f"bad table bounds nmax={n_max}, mmax={m_max}")
    table: dict[tuple[int, int], int] = {}
    for n in range(1, n_max + 1):
        bundled = n in bundled_n
        if bundled and (1, n) not in REFERENCE_C_DIMS:
            raise DiagramError(f"no published connected dimensions for n={n}; "
                               "the row cannot be bundled")
        for m in range(1, m_max + 1):
            if bundled and (m, n) in REFERENCE_C_DIMS:
                table[(m, n)] = REFERENCE_C_DIMS[(m, n)]
            else:
                table[(m, n)] = dim_C(m, n, budget=budget)
    return table


def _c_lookup(table: Mapping[tuple[int, int], int], m: int, n: int) -> int:
    if n < m - 1:
        return 0
    if m == 1 and n == 0:
        return 1
    try:
        return table[(m, n)]
    except KeyError:
        raise ChordBasisError(f"connected dimension for (m={m}, n={n}) missing "
                              "from the supplied table") from None


def dim_A(m: int, n: int, table: Mapping[tuple[int, int], int]) -> int:
    """Dimension of the full space from connected dimensions (see module
    docstring); the division by c! must be exact and is asserted."""
    if m < 1 or n < 0:
        raise DiagramError(f"bad parameters m={m}, n={n}")
    total = 0
    for c in range(1, m + 1):
        inner = 0
        for sizes in _compositions(m, c, 1):
            mult = factorial(m)
            for s in sizes:
                mult //= factorial(s)
            for chords in _compositions(n, c, 0):
                prod = 1
                for mi, ni in zip(sizes, chords):
                    prod *= _c_lookup(table, mi, ni)
                    if prod == 0:
                        break
                inner += mult * prod
        if inner % factorial(c):
            raise ChordBasisError(
                f"component-count sum for c={c} not divisible by c! "
                f"(m={m}, n={n}, inner={inner})"
            )
        total += inner // factorial(c)
    return total


def dim_table_A(n_max: int, m_max: int,
                c_table: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Full dimensions (m, n) -> dim_A(m, n) for 1 <= n <= n_max, 1 <= m <= m_max."""
    return {(m, n): dim_A(m, n, c_table)
            for n in range(1, n_max + 1) for m in range(1, m_max + 1)}


def _set_partitions(items: Sequence[int], min_parts: int = 0) -> Iterator[list[list[int]]]:
    """Set partitions with parts ordered by their lowest member, those with
    at least ``min_parts`` parts only; the order is that of the unpruned
    walk."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest, min_parts - 1):
        yield [[first]] + sub
        if len(sub) >= min_parts:
            for i in range(len(sub)):
                # the part receiving the minimum moves to the front
                yield [[first] + sub[i]] + sub[:i] + sub[i + 1:]


class PartitionComposition(NamedTuple):
    """A set partition of the circles (parts ordered by lowest member)
    paired with one chord count per part."""

    parts: tuple[tuple[int, ...], ...]
    chords: tuple[int, ...]


def partition_compositions(m: int, n: int) -> Iterator[PartitionComposition]:
    """All (partition, composition) pairs that can carry a nonzero factor:
    each part of r circles gets at least r - 1 chords.  A partition into c
    parts needs m - c chords in all, so only those with c >= m - n are
    walked, and each spreads its n - (m - c) spare chords over its parts."""
    if m < 1 or n < 0:
        raise DiagramError(f"bad parameters m={m}, n={n}")
    for partition in _set_partitions(list(range(m)), m - n):
        c = len(partition)
        for spare in _compositions(n - (m - c), c, 0):
            yield PartitionComposition(
                tuple(tuple(p) for p in partition),
                tuple(s + len(p) - 1 for s, p in zip(spare, partition)),
            )


def full_basis(m: int, n: int, budget: Budget | None = None) -> list[ChordDiagram]:
    """Basis of the full space: disjoint unions of one connected basis
    element per component, over all (partition, composition) pairs; the
    time budget is checked per pair and per union."""
    budget = ensure_budget(budget)
    out: list[ChordDiagram] = []
    for pc in partition_compositions(m, n):
        budget.check_time()
        bases = [connected_basis(len(part), ni, budget).basis
                 for part, ni in zip(pc.parts, pc.chords)]
        for combo in itertools.product(*bases):
            budget.check_time()
            out.append(disjoint_union(zip(combo, pc.parts)))
    out.sort()
    return out


def eval_A_polynomial(n: int, m: int) -> Fraction:
    """Evaluate the published closed-form polynomial for the full dimension
    at order n in the circle count m.  These formulas are transcribed
    verbatim from their source and verified elsewhere against the
    component-decomposition formula, which is authoritative on mismatch."""
    x = Fraction(m)
    if n == 1:
        return (x**2 + x) / 2
    if n == 2:
        return (x**4 + 3 * x**2) / 8 + (x**3 + 5 * x) / 4
    if n == 3:
        return ((x**6 - 287 * x**4) / 144 + (19 * x**5 + 325 * x**3) / 48
                - Fraction(433, 72) * x**2 + Fraction(23, 6) * x)
    if n == 4:
        return ((x**8 - 46375 * x**4) / 384 + (17 * x**7 + 26651 * x**3) / 96
                - Fraction(209, 64) * x**6 + Fraction(113, 4) * x**5
                - Fraction(9775, 32) * x**2 + Fraction(3107, 24) * x)
    if n == 5:
        return ((x**10 + 13188691 * x**5) / 3840
                + (29 * x**9 - 151305 * x**6) / 256
                - (1421 * x**8 + 23495 * x**7) / 384
                - Fraction(1139009, 96) * x**4 + Fraction(4492697, 192) * x**3
                - Fraction(1897287, 80) * x**2 + Fraction(557411, 60) * x)
    raise ChordBasisError(f"no closed-form polynomial for n={n} (need 1..5)")


def polynomial_discrepancies(n_max: int = 5, m_max: int = 6,
                             c_table: Mapping[tuple[int, int], int] | None = None
                             ) -> list[tuple[int, int, Fraction, int]]:
    """(n, m, polynomial value, formula value) wherever the published
    closed forms disagree with the component-decomposition formula."""
    table = c_table if c_table is not None else REFERENCE_C_DIMS
    out = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            poly = eval_A_polynomial(n, m)
            formula = dim_A(m, n, table)
            if poly != formula:
                out.append((n, m, poly, formula))
    return out


def binomial_departures(c_table: Mapping[tuple[int, int], int] | None = None
                        ) -> list[tuple[int, int, Fraction, int]]:
    """(n, k, form D_k, formula D_k) at the first k where the binomial-basis
    coefficients of the published closed form and of the formula differ,
    for each n <= 5 whose form departs.

    A(m, n) = sum over k of binom(m, k) * D_k(n) (see :func:`block_dims`),
    so D_k = sum over j <= k of (-1)^(k-j) * binom(k, j) * A(j, n), with
    A(0, n) = 0, and no quotient is needed.  D_k is the dimension of the
    diagrams with a foot on each of k circles, so the first departure names
    the diagrams a form gets wrong.
    """
    table = c_table if c_table is not None else REFERENCE_C_DIMS
    out = []
    for n in range(1, 6):
        form, formula = [Fraction(0)], [0]
        for k in range(1, 2 * n + 1):
            form.append(eval_A_polynomial(n, k))
            formula.append(dim_A(k, n, table))
            d_form, d_formula = (sum((-1) ** (k - j) * comb(k, j) * a[j] for j in range(k + 1))
                                 for a in (form, formula))
            if d_form != d_formula:
                out.append((n, k, d_form, d_formula))
                break
    return out


def format_dimension_table(table: Mapping[tuple[int, int], int], family: str,
                           csv: bool = False) -> str:
    """Aligned text (or CSV) table, rows by chord count, columns by circle
    count; the connected family ("C") gets a trailing row-total column and
    blank cells at its structural zeros."""
    ns = sorted({n for _, n in table})
    ms = sorted({m for m, _ in table})
    with_total = family == "C"
    header = ["n\\m"] + [str(m) for m in ms] + (["total"] if with_total else [])
    rows = [header]
    for n in ns:
        row = [str(n)]
        total = 0
        for m in ms:
            v = table[(m, n)]
            total += v
            if with_total and n < m - 1:
                row.append("")
            else:
                row.append(str(v))
        if with_total:
            row.append(str(total))
        rows.append(row)
    if csv:
        return "\n".join(",".join(cell for cell in row) for row in rows) + "\n"
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def basis_to_text(b: BasisResult) -> str:
    ds = b.diagram_set
    names = {d: str(d) for d in b.basis}  # formatted once for all the terms naming it
    body_lines = list(names.values())
    body_lines.append("pivot-expressions")
    for i in b.pivots:
        pivot = ds.diagrams[i]
        expr = b.expressions[pivot]
        if expr:
            terms = " + ".join(f"{coef}*{names[diag]}" for diag, coef in expr)
        else:
            terms = "0"
        body_lines.append(f"{pivot} = {terms}")
    body = "".join(line + "\n" for line in body_lines)
    return artifact_text(basis_name(ds.m, ds.n), f"dim={b.dimension} count={len(ds)} "
                         f"diagrams-digest={ds.digest}", body)


def basis_sections(text: str, name: str = "text") -> tuple[list[str], list[str]]:
    """The basis lines and the pivot-expression lines of a file laid out as
    :func:`basis_to_text` writes it: header word ``basis``, the body's
    ``digest=``, then ``dim=`` basis lines, ``pivot-expressions`` and the
    rest of the ``count=`` lines.  The bare one-circle diagram is the empty
    line.  Raises DiagramError, naming the file ``name``, on other text."""
    words = text.split("\n", 1)[0].split()
    lines = text.split("\n")[1:-1]  # the body ends with a newline
    if (words[:1] == ["basis"] and all("=" in w for w in words[1:])
            and text.endswith("\n") and "pivot-expressions" in lines
            and artifact_intact(text)):
        fields = header_fields(text)
        cut = lines.index("pivot-expressions")
        if fields.get("dim") == str(cut) and fields.get("count") == str(len(lines) - 1):
            return lines[:cut], lines[cut + 1:]
    raise DiagramError(f"{name} is not an intact basis file")


def basis_from_text(text: str, name: str = "text") -> BasisResult:
    """The connected basis a basis file holds, rebuilt without enumeration:
    the set is the file's basis and pivot diagrams, and each pivot keeps its
    expression.  Every diagram must be canonical, connected and of the
    header's (m, n); every expression must name basis diagrams right of its
    pivot, in increasing order, with nonzero coefficients; and the file must
    be exactly what :func:`basis_to_text` writes for the result, so both
    sections are in set order.  Raises DiagramError, naming the file
    ``name``, on other text."""
    basis_lines, pivot_lines = basis_sections(text, name)
    try:
        fields = header_fields(text)
        m, n = int(fields["m"]), int(fields["n"])
    except (KeyError, ValueError):
        raise DiagramError(f"{name} names no (m, n)") from None

    def member(line: str) -> ChordDiagram:
        d = canonicalize(rep := parse(line))
        if d.rep != rep or (d.m, d.n) != (m, n) or not is_connected(d):
            raise DiagramError(f"{name}: {line!r} is not a canonical connected "
                               f"diagram of (m={m}, n={n})")
        return d

    named = {line: member(line) for line in basis_lines}
    terms_of = {}
    for line in pivot_lines:
        pivot, _, terms = line.partition(" = ")
        terms_of[member(pivot)] = [] if terms == "0" else terms.split(" + ")
    ds = DiagramSet(m, n, True, tuple(sorted([*named.values(), *terms_of])))
    if len(ds) != len(basis_lines) + len(pivot_lines):
        raise DiagramError(f"{name} names a diagram twice")
    expressions = {}
    for pivot, terms in terms_of.items():
        expr, last = [], ds.index_of(pivot)
        for term in terms:
            coef, _, line = term.partition("*")
            try:
                d, value = named[line], Fraction(coef)
            except (KeyError, ValueError, ZeroDivisionError):
                raise DiagramError(f"{name}: the term {term!r} of {pivot} is not a "
                                   "coefficient times a basis diagram") from None
            col = ds.index_of(d)
            if not value or col <= last:
                raise DiagramError(f"{name}: the terms of {pivot} are not nonzero and "
                                   "right of it in increasing order")
            expr.append((d, value))
            last = col
        expressions[pivot] = tuple(expr)
    result = BasisResult(ds, tuple(i for i, d in enumerate(ds.diagrams) if d in terms_of),
                         tuple(d for d in ds.diagrams if d not in terms_of), expressions)
    if basis_to_text(result) != text:
        raise DiagramError(f"{name} is not the text written for the basis it names")
    return result
