"""Generation of four-term relation instances over an enumerated diagram set.

For every diagram, every circle, and every cyclically adjacent ordered pair
of feet carrying distinct chords a (first) and b (second), two relations are
emitted.  Both say that sliding one foot of the pair past the two feet of
the other chord produces differences that cancel:

* family A moves the a-foot:  with the four placements of that foot written
  as (before b's near foot, after b's near foot, before b's far foot, after
  b's far foot), the signed sum is  +1 -1 +1 -1.
* family B moves the b-foot around chord a's far foot:  +1 -1 -1 +1 on
  (source, pair swapped, before far foot, after far foot).

"before"/"after" mean immediately preceding/following in clockwise reading
order on the target foot's circle.  Every edited representation is
re-canonicalized before the four terms are merged, so coincidences of
canonical forms may cancel entries or produce coefficients of +-2; a row may
merge away entirely and is then kept as an empty audit row.

A canonical form does not depend on the chord labels, so each call of
:func:`generate_relations` keeps a memo from an edited representation, its
chords renumbered by first occurrence, to its column: each distinct term
costs one :func:`canonical_feet` call (at (4,5), 28,097 calls for 134,760
terms).  The memo is local to the call and freed when it returns.

An edit never empties a circle (the moving foot's circle keeps its partner
in the pair) nor fills a bare one, so the rows of a diagram with bare
circles are those of its active block, the diagram with its bare circles
dropped, placed back on its circles.  Placing keeps diagram-set order, so
merging and coefficient order carry over unchanged.  Each call builds the
rows of every distinct active block once and maps each of its terms to a
column per copy: at (6,3), 422 ``canonical_feet`` calls where renumbered
terms alone need 6,340.  Diagrams without a bare circle, every connected
one among them, take the term-by-term path above.

The adjacent pair at a circle's boundary (last foot followed cyclically by
the first) is generated by the wrap families; on a two-foot circle the
interior and wrap pairs coincide and both are still emitted (the list is
deliberately redundant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator

from .budget import Budget, ensure_budget
from .diagrams import (
    ChordDiagram,
    canonical_feet,
    circle_owners,
    component_chord_counts,
    components,
    relabel,
)
from .enumeration import DiagramSet
from .errors import ChordBasisError, DiagramError
from .util import content_digest


@dataclass(frozen=True, slots=True)
class Relation:
    """A sparse integer row over a DiagramSet: ((column, coefficient), ...).

    Where a row came from is a function of its position in the generation
    order, so it is derived when the relations file is written, not stored.
    """

    coeffs: tuple[tuple[int, int], ...]

    def is_zero(self) -> bool:
        return not self.coeffs


def _remove_insert(feet: tuple[int, ...], starts: tuple[int, ...], circle: list[int],
                   moving: int, target: int, after: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Remove the foot at ``moving`` and reinsert it immediately before or
    after the foot currently at ``target`` (indices into the original feet);
    circle ``circle[p]`` owns position p."""
    q = target + 1 if after else target
    label = (feet[moving],)
    if q > moving:
        new_feet = feet[:moving] + feet[moving + 1:q] + label + feet[q:]
    else:
        new_feet = feet[:q] + label + feet[q:moving] + feet[moving + 1:]
    lost, gained = circle[moving], circle[target]
    new_starts = tuple(s - (i > lost) + (i > gained) for i, s in enumerate(starts))
    return new_feet, new_starts


def _adjacent_pairs(feet: tuple[int, ...], starts: tuple[int, ...]
                    ) -> Iterator[tuple[int, int, int, bool]]:
    """(circle, first position, second position, is_wrap) of every
    cyclically adjacent pair of feet on distinct chords, in generation
    order; each pair yields a family-A row, then a family-B row."""
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        for k in range(lo, hi - 1):
            if feet[k] != feet[k + 1]:
                yield i, k, k + 1, False
        if hi - lo >= 2 and feet[hi - 1] != feet[lo]:
            yield i, hi - 1, lo, True


def _row_coeffs(feet: tuple[int, ...], starts: tuple[int, ...], source: Hashable,
                column: Callable[[tuple[int, ...], tuple[int, ...]], Hashable]
                ) -> list[tuple[tuple[Hashable, int], ...]]:
    """The merged coefficients of every row of the diagram (feet, starts),
    whose own column is ``source``; ``column`` maps an edited representation
    to its column, and columns must sort in diagram-set order."""
    circle = circle_owners(starts)
    partner: dict[int, int] = {}
    first_pos: dict[int, int] = {}
    for pos, c in enumerate(feet):
        if c in first_pos:
            partner[pos] = first_pos[c]
            partner[first_pos[c]] = pos
        else:
            first_pos[c] = pos
    out = []
    for _, pa, pb, _ in _adjacent_pairs(feet, starts):
        swapped = list(feet)
        swapped[pa], swapped[pb] = swapped[pb], swapped[pa]
        swap_idx = column(tuple(swapped), starts)
        for moving, target, signs in (
            (pa, partner[pb], (1, -1)),   # family A; before far foot: +, after: -
            (pb, partner[pa], (-1, 1)),   # family B; before far foot: -, after: +
        ):
            terms = [(source, 1), (swap_idx, -1)]
            for after, sign in ((False, signs[0]), (True, signs[1])):
                terms.append((column(*_remove_insert(feet, starts, circle, moving,
                                                     target, after)), sign))
            merged: dict[Hashable, int] = {}
            for idx, coef in terms:
                merged[idx] = merged.get(idx, 0) + coef
            out.append(tuple(sorted((i, c) for i, c in merged.items() if c)))
    return out


def generate_relations(ds: DiagramSet, budget: Budget | None = None) -> list[Relation]:
    """All four-term rows over ``ds``, in a fixed documented order.

    Iteration order: diagrams in set order, circles ascending, interior
    pairs by position then the wrap pair, family A before B.  Rows that
    merge to nothing are kept (for auditing) and dropped at matrix assembly.
    """
    budget = ensure_budget(budget)
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def column(feet: tuple[int, ...], starts: tuple[int, ...]) -> int:
        key = (relabel(feet), starts)
        idx = memo.get(key)
        if idx is None:
            idx = memo[key] = ds.index_of_raw(canonical_feet(key[0], starts), starts)
        return idx

    active_memo: dict[tuple[tuple[int, ...], tuple[int, ...]],
                      tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def active_term(feet: tuple[int, ...], starts: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # (starts, canonical feet) on an active block, which sorts like the
        # columns of the block's placements
        key = (relabel(feet), starts)
        term = active_memo.get(key)
        if term is None:
            term = active_memo[key] = (starts, canonical_feet(key[0], starts))
        return term

    # (feet, active starts) -> (distinct terms, rows as (term number, coefficient))
    blocks: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[list, list]] = {}
    rows: list[Relation] = []
    for d in ds.diagrams:
        budget.check_time()
        feet, starts = d.rep.feet, d.rep.starts
        active = tuple(dict.fromkeys(starts))
        if len(active) == len(starts):
            rows.extend(map(Relation, _row_coeffs(feet, starts,
                                                  ds.index_of_raw(feet, starts), column)))
            continue
        # Edits never empty a circle nor fill a bare one, so a diagram with
        # bare circles has the rows of its active block, placed on its circles.
        block = blocks.get((feet, active))
        if block is None:
            numbers: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
            shape = [tuple((numbers.setdefault(t, len(numbers)), c) for t, c in row)
                     for row in _row_coeffs(feet, active, (active, feet), active_term)]
            block = blocks[(feet, active)] = (list(numbers), shape)
        terms, shape = block
        place = [active.index(s) for s in starts]
        cols = [ds.index_of_raw(f, tuple([s[i] for i in place])) for s, f in terms]
        rows.extend(Relation(tuple([(cols[t], c) for t, c in row])) for row in shape)
    return rows


def check_component_preservation(rel: Relation, ds: DiagramSet) -> bool:
    """True iff every diagram in the row has the same circle partition and
    the same per-component chord counts."""
    profiles = set()
    for idx, coef in rel.coeffs:
        if coef == 0:
            continue
        rep = ds.diagrams[idx].rep
        part = components(rep)
        profiles.add((part.assignment, component_chord_counts(rep, part)))
        if len(profiles) > 1:
            return False
    return True


def _row_labels(ds: DiagramSet) -> Iterator[str]:
    """The provenance line of every row ``generate_relations`` yields for
    ``ds``, in the same order."""
    for d in ds.diagrams:
        source = str(d)
        for circle, pa, pb, wrap in _adjacent_pairs(d.rep.feet, d.rep.starts):
            kind = "wrap-" if wrap else "interior-"
            for family in "AB":
                yield (f"# source={source} circle={circle} pair={pa},{pb} "
                       f"family={kind}{family}")


def relations_to_text(ds: DiagramSet, rows: list[Relation]) -> str:
    """The relations file: a header, then each row's provenance line and its
    coefficients.  ``rows`` must be the rows generation yields for ``ds``."""
    labels = _row_labels(ds)
    body_lines = [label + "\n" + " ".join(f"{i}:{c}" for i, c in r.coeffs) + "\n"
                  for r, label in zip(rows, labels)]
    if len(body_lines) != len(rows) or next(labels, None) is not None:
        raise ChordBasisError(f"{len(rows)} rows given, but generation over the "
                              f"(m={ds.m}, n={ds.n}) diagram set yields another count")
    body = "".join(body_lines)
    nonzero = sum(1 for r in rows if not r.is_zero())
    header = (
        f"relations m={ds.m} n={ds.n} connected={int(ds.connected_only)} "
        f"rows={len(rows)} nonzero={nonzero} count={len(ds)} "
        f"diagrams-digest={ds.digest} digest={content_digest(body)}"
    )
    return header + "\n" + body


def relations_from_text(text: str, ds: DiagramSet) -> list[Relation]:
    """The rows of a relations file over ``ds``; the file must be exactly
    the text :func:`relations_to_text` writes for them."""
    try:
        rows = [Relation(tuple((int(i), int(c)) for i, c in
                               (tok.split(":") for tok in line.split())))
                for line in text.split("\n")[2::2]]
    except ValueError as exc:
        raise DiagramError(f"malformed relation file: {exc}") from exc
    try:
        written = relations_to_text(ds, rows)
    except ChordBasisError:
        written = None
    if written != text:
        raise DiagramError("relation file is not the text written for its rows "
                           "over this diagram set")
    return rows
