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
replaced by its diagram's column before the four terms are merged, so
coincidences of canonical forms may cancel entries or produce coefficients
of +-2; a row may merge away entirely and is then kept as an empty audit
row.

Bare circles are only a placement (:func:`active_starts`).  The diagrams
of a set that share one bare-circle pattern are the terms of their active
list, each diagram's feet with its active starts, in set order, placed on
the pattern's circles, and so are their rows.  Each call of
:func:`generate_relations` builds the rows of every distinct active list
once, with the list's positions as columns.  A term's column is found
through one map per list, built before any row from the :func:`orbit` of
each of the list's diagrams: its active starts, then every orbit image,
give the diagram's column.  An edited term, renumbered by first
occurrence, is one of those images, so it costs one lookup and no
canonical form is searched.  All (6,3) builds 176 orbits for its 2,170
diagrams, as its 63 patterns share six lists.  A term the list lacks
raises :class:`DiagramError`.  Every diagram of a pattern receives
its rows through the pattern's diagram indices, local column c becoming
``where[c]``; those indices increase with c, so every row stays sorted by
column.  Placing bare circles at fixed positions keeps the (starts, feet)
order, so in an enumerated set all patterns with k active circles share
one list.  A connected set has one pattern, and its list is the whole set.

The adjacent pair at a circle's boundary (last foot followed cyclically by
the first) is generated by the wrap families; on a two-foot circle the
interior and wrap pairs coincide and both are still emitted.  The full list
is what the relations file records; it is deliberately redundant.

Family B alone spans the row space.  Take a diagram S, an adjacent pair
(a then b) of it, and S' = S with the pair swapped.  Let X_before and
X_after be S with a's foot moved immediately before and after b's far foot.
The family-A row of S on the pair is  S - S' + X_before - X_after.  The
family-B row of S' on the same positions moves a (now second) around the
far foot of b (now first); removing a's foot leaves S and S' equal, so its
terms are  S' - S - X_before + X_after, minus the A row of S.  S' is a
diagram of the set, and its canonical form, a rotation and relabelling of
S', has the same rows on the matching pair, so every family-A row is minus
a family-B row.  The B rows
also repeat many times over: at connected (2,5) the 4,594 B rows hold 1,858
distinct rows up to sign.  ``b_only`` makes :func:`generate_relations`
build family B alone, which looks up three terms per pair instead of
five; :func:`basis.quotient` eliminates those rows, deduplicated.  The RREF
of a row space in a fixed column order is unique, so the result is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .budget import Budget, ensure_budget
from .diagrams import (
    active_starts,
    circle_owners,
    component_chord_counts,
    components,
    orbit,
    relabel,
)
from .enumeration import DiagramSet
from .errors import ChordBasisError, DiagramError
from .util import content_digest


# a diagram's feet with the starts of its active block
Term = tuple[tuple[int, ...], tuple[int, ...]]


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


def _row_coeffs(feet: tuple[int, ...], starts: tuple[int, ...], source: int,
                term: Callable[[tuple[int, ...], tuple[int, ...]], int],
                b_only: bool) -> list[tuple[tuple[int, int], ...]]:
    """The merged coefficients of every row of the diagram (feet, starts),
    or of its family-B rows with ``b_only``, as (column, coefficient) pairs
    sorted by column; ``source`` is the diagram's own column and ``term``
    gives an edited representation's column."""
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
        swap_term = term(tuple(swapped), starts)
        families = (
            (pa, partner[pb], (1, -1)),   # family A; before far foot: +, after: -
            (pb, partner[pa], (-1, 1)),   # family B; before far foot: -, after: +
        )
        for moving, target, signs in families[b_only:]:
            terms = [(source, 1), (swap_term, -1)]
            for after, sign in ((False, signs[0]), (True, signs[1])):
                terms.append((term(*_remove_insert(feet, starts, circle, moving,
                                                   target, after)), sign))
            merged: dict[int, int] = {}
            for t, coef in terms:
                merged[t] = merged.get(t, 0) + coef
            out.append(tuple(sorted([(t, c) for t, c in merged.items() if c])))
    return out


def _active_rows(active: tuple[Term, ...], budget: Budget,
                 b_only: bool) -> list[list[tuple[tuple[int, int], ...]]]:
    """The rows of every active term (feet, active starts) of ``active``,
    over the positions in ``active`` as columns; a term that ``active``
    lacks raises :class:`DiagramError`."""
    # active starts -> every orbit image of the list's diagrams -> column
    column: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for c, (feet, starts) in enumerate(active):
        budget.check_time()
        column.setdefault(starts, {}).update(dict.fromkeys(orbit(feet, starts), c))

    def term(feet: tuple[int, ...], starts: tuple[int, ...]) -> int:
        try:
            return column[starts][relabel(feet)]
        except KeyError:
            raise DiagramError("canonical form not in the enumerated set") from None

    out = []
    for c, (feet, starts) in enumerate(active):
        budget.check_time()
        out.append(_row_coeffs(feet, starts, c, term, b_only))
    return out


def generate_relations(ds: DiagramSet, budget: Budget | None = None,
                       b_only: bool = False) -> list[Relation]:
    """All four-term rows over ``ds``, in a fixed documented order, or with
    ``b_only`` the family-B rows alone, which span the same row space.

    Iteration order: diagrams in set order, circles ascending, interior
    pairs by position then the wrap pair, family A before B.  Rows that
    merge to nothing are kept (for auditing) and dropped at matrix assembly.
    """
    budget = ensure_budget(budget)
    # bare-circle pattern -> the indices of its diagrams, in set order
    patterns: dict[tuple[bool, ...], list[int]] = {}
    for i, d in enumerate(ds.diagrams):
        starts = d.rep.starts
        patterns.setdefault(tuple([lo == hi for lo, hi in zip(starts, starts[1:])]),
                            []).append(i)
    built: dict[tuple[Term, ...], list[list[tuple[tuple[int, int], ...]]]] = {}
    placed: list[list[Relation]] = [[] for _ in ds.diagrams]
    for where in patterns.values():
        budget.check_time()
        reps = [ds.diagrams[i].rep for i in where]
        active = tuple([(rep.feet, active_starts(rep.starts)) for rep in reps])
        if active not in built:
            built[active] = _active_rows(active, budget, b_only)
        # where is increasing, so a row sorted by local column stays sorted
        for i, rows in zip(where, built[active]):
            placed[i] = [Relation(tuple([(where[c], v) for c, v in row]))
                         for row in rows]
    return [row for rows in placed for row in rows]


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
