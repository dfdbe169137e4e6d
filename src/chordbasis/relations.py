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
list: each diagram's feet with its active starts, in set order, placed on
the pattern's circles.  So are their rows.  Each call builds the rows of
every distinct active list once, with the list's positions as columns.

A term's column is found in two steps.  :meth:`DiagramSet.term_feet`
gives the canonical feet of the edited term's diagram, and those feet
with the active starts give the term's position in the list.  Given a
position of the term, it also gives where that position lands in the
canonical feet.  How the set finds either is its own business: this
module reads no orbit map, builds no orbit and searches no canonical
form.  A term the list lacks raises :class:`DiagramError`.

Every diagram of a pattern receives its rows through the pattern's diagram
indices, local column c becoming ``where[c]``; those indices increase with
c, so every row stays sorted by column, and a pattern of the set's first
diagrams, such as the one pattern of a connected or an active set, shares
its rows as built.  Placing bare circles at fixed positions keeps the
(starts, feet) order, so in an enumerated set all patterns with k active
circles share one list.  A connected set has one pattern, and its list is
the whole set.

The adjacent pair at a circle's boundary (last foot followed cyclically by
the first) is generated by the wrap families; on a two-foot circle the
interior and wrap pairs coincide and both are still emitted.  The full list
is what the relations file records; it is deliberately redundant.

Family A is family B up to sign.  Take a diagram S, an adjacent pair
(a then b) of it, and S' = S with the pair swapped.  Let X_before and
X_after be S with a's foot moved immediately before and after b's far foot.
The family-A row of S on the pair is  S - S' + X_before - X_after.  The
family-B row of S' on the same positions moves a (now second) around the
far foot of b (now first); removing a's foot leaves S and S' equal, so its
terms are  S' - S - X_before + X_after, minus the A row of S.  S' is a
diagram of the set, and its canonical form, a rotation and relabelling of
S', has the same rows on the matching pair, so every family-A row is minus
a family-B row.

The family-B rows come in twins.  The B row of S on (a, b) is
S - S' - Y_before + Y_after, where Y_before and Y_after are S with b's
foot moved immediately before and after a's far foot.  In Y_after, a's
far foot and b's foot are an adjacent pair (a then b).  Its B row moves
b's foot around a's other foot, where it lands as S' (before) and S
(after), and its swap term is Y_before; so it is
Y_after - Y_before - S' + S, the same row with the same signs.

So each row is built once and copied to every slot it equals.  A slot is
a family and a pair, the pair named by its diagram's column and its first
position; generation visits the slots in increasing (column, position),
A before B.  Write q for the pair of a's far foot and b's foot in
Y_before and Y_after, and q' for the pair of a's foot and b's far foot in
X_before and X_after.  The swap argument says A_T(r) = -B_T'(r) for any
diagram T, pair r and T' = T with r swapped; swapping p in S' gives S,
swapping q in Y_before gives Y_after, and swapping q' in X_before gives
X_after.  The twin argument says B_S(p) = B_Y_after(q), and, applied to
S', whose pair at p is b then a and whose a's foot moved after b's far
foot is X_after, B_S'(p) = B_X_after(q').  Together:

    B_S(p) = B_Y_after(q) = -A_S'(p) = -A_Y_before(q)
    A_S(p) = -B_S'(p) = -B_X_after(q') = A_X_before(q')

A built B row therefore fills its twin and two family-A slots, and a
built A row fills two family-B slots and one family-A slot.  The swap
keeps the pair at p.  A foot moved from ``moving`` around the target foot
at ``t`` forms the pair with it at position ``t - (t > moving)`` on the
target's circle, whether it lands before or after.
:meth:`DiagramSet.term_feet` carries that position into the canonical
feet, which names the slot; on a diagram with automorphisms it names one
of the equivalent slots, and those have the same rows.  A built row is
kept only for the slots still ahead of the one being built, and each is
taken out when generation reaches it, so every slot gets exactly the row
that building it would give.

A term the set's family drops (``term_feet`` gives it no feet) leaves
its row and fills no slot: one projection of every row of a class alike,
so the identities above still hold.

The rows built, without their copies, are :func:`relation_classes`, which
:func:`basis.quotient` eliminates.  A copy follows the row it copies and
equals it up to sign, and ``exactla.assemble`` keeps each row up to sign
once, where it first occurs, so both lists assemble to one matrix.  Both
refuse a missing term: a row's terms are looked up where it is built.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .budget import Budget, ensure_budget
from .cache import artifact_text, relations_name
from .diagrams import active_starts, chord_circles, circle_owners, components
from .enumeration import DiagramSet
from .errors import ChordBasisError, DiagramError
from .exactla import Relation


# a diagram's feet with the starts of its active block
Term = tuple[tuple[int, ...], tuple[int, ...]]


def _remove_insert(feet: tuple[int, ...], starts: tuple[int, ...], circle: list[int],
                   moving: int, target: int, after: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Remove the foot at ``moving`` and reinsert it immediately before or
    after the foot currently at ``target`` (indices into the original feet);
    circle ``circle[p]`` owns position p.  A foot that stays on its circle
    leaves ``starts`` as it is, the same object."""
    q = target + 1 if after else target
    label = (feet[moving],)
    if q > moving:
        new_feet = feet[:moving] + feet[moving + 1:q] + label + feet[q:]
    else:
        new_feet = feet[:q] + label + feet[q:moving] + feet[moving + 1:]
    lost, gained = circle[moving], circle[target]
    if lost == gained:
        return new_feet, starts
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


# a row's (column, coefficient) pairs, sorted by column
Row = tuple[tuple[int, int], ...]


def _row_coeffs(feet: tuple[int, ...], starts: tuple[int, ...], source: int,
                term: Callable[..., tuple[int | None, int]], ahead: dict[int, Row],
                copies: bool) -> list[Row]:
    """The rows built at the slots of the diagram (feet, starts) at column
    ``source``, and with ``copies`` the rows copied to its other slots too,
    in generation order.  ``term(feet, starts, pos)`` gives an edited term's
    column and the A slot of the pair that starts at its position ``pos``,
    or a column ``None`` and a negative slot for a term the set drops.  A
    slot already in ``ahead`` is taken from there; a built row fills the
    slots of its class that are still ahead (module docstring)."""
    circle = circle_owners(starts)
    partner: dict[int, int] = {}
    first_pos: dict[int, int] = {}
    for pos, c in enumerate(feet):
        if c in first_pos:
            partner[pos] = first_pos[c]
            partner[first_pos[c]] = pos
        else:
            first_pos[c] = pos

    def moved(moving: int, target: int, after: bool) -> tuple[int, int]:
        # the moved foot and the target foot are the pair, at the target's
        # position once the moving foot is gone
        return term(*_remove_insert(feet, starts, circle, moving, target, after),
                    target - (target > moving))

    def fill(here: int, slots: tuple[tuple[int, Row], ...]) -> None:
        for slot, row in slots:
            if slot > here:
                ahead[slot] = row

    out = []
    for _, pa, pb, _ in _adjacent_pairs(feet, starts):
        here = (source * len(feet) + pa) * 2  # the pair's A slot; its B slot is here + 1
        swapped = None
        row = ahead.pop(here, None)
        if row is None:
            # family A moves a's foot to just before / after b's far foot
            swapped = term(_swap(feet, pa, pb), starts, pa)
            x_before = moved(pa, partner[pb], False)
            x_after = moved(pa, partner[pb], True)
            row = _merged([(source, 1), (swapped[0], -1), (x_before[0], 1), (x_after[0], -1)])
            minus = _negated(row) if copies else row  # no copy is read without copies
            fill(here, ((swapped[1] + 1, minus), (x_after[1] + 1, minus), (x_before[1], row)))
            out.append(row)
        elif copies:
            out.append(row)
        row = ahead.pop(here + 1, None)
        if row is None:
            # family B moves b's foot to just before / after a's far foot
            if swapped is None:
                swapped = term(_swap(feet, pa, pb), starts, pa)
            y_before = moved(pb, partner[pa], False)
            y_after = moved(pb, partner[pa], True)
            row = _merged([(source, 1), (swapped[0], -1), (y_before[0], -1), (y_after[0], 1)])
            minus = _negated(row) if copies else row
            fill(here + 1, ((y_after[1] + 1, row), (swapped[1], minus), (y_before[1], minus)))
            out.append(row)
        elif copies:
            out.append(row)
    return out


def _swap(feet: tuple[int, ...], pa: int, pb: int) -> tuple[int, ...]:
    """``feet`` with the feet at ``pa`` and ``pb`` exchanged."""
    swapped = list(feet)
    swapped[pa], swapped[pb] = swapped[pb], swapped[pa]
    return tuple(swapped)


def _merged(terms: list[tuple[int | None, int]]) -> Row:
    """The terms with equal columns summed and zeros dropped, by column; a
    term without a column, which the set drops, is left out."""
    merged: dict[int | None, int] = {}
    for t, coef in terms:
        merged[t] = merged.get(t, 0) + coef
    merged.pop(None, None)
    return tuple(sorted([(t, c) for t, c in merged.items() if c]))


def _negated(row: Row) -> Row:
    return tuple([(t, -c) for t, c in row])


def _active_rows(active: tuple[Term, ...],
                 feet_of: Callable[..., tuple[tuple[int, ...], int] | None],
                 budget: Budget, copies: bool) -> list[list[Row]]:
    """The rows of every active term (feet, active starts) of ``active``,
    over the positions in ``active`` as columns, each edited term's diagram
    and pair position found by ``feet_of`` (:meth:`DiagramSet.term_feet`);
    a term that ``active`` lacks raises :class:`DiagramError`."""
    local = {t: c for c, t in enumerate(active)}
    size = len(active[0][0])  # every term has the 2n feet

    def term(feet: tuple[int, ...], starts: tuple[int, ...], pos: int
             ) -> tuple[int | None, int]:
        try:
            found = feet_of(feet, starts, pos)
            if found is None:
                # a dropped term: no column, and a slot below every slot
                # being built, which no fill reaches
                return None, -2
            canonical, pos = found
            column = local[(canonical, starts)]
        except KeyError:
            raise DiagramError("canonical form not in the enumerated set") from None
        return column, (column * size + pos) * 2

    # slot -> the row built for it at an earlier slot of its class
    ahead: dict[int, Row] = {}
    out = []
    for c, (feet, starts) in enumerate(active):
        budget.check_time()
        out.append(_row_coeffs(feet, starts, c, term, ahead, copies))
    return out


def generate_relations(ds: DiagramSet, budget: Budget | None = None) -> list[Relation]:
    """All four-term rows over ``ds``, in a fixed documented order.

    Iteration order: diagrams in set order, circles ascending, interior
    pairs by position then the wrap pair, family A before B.  Rows that
    merge to nothing are kept (for auditing); matrix assembly drops them
    and keeps every other row once.
    """
    return _placed_rows(ds, budget, copies=True)


def relation_classes(ds: DiagramSet, budget: Budget | None = None) -> list[Relation]:
    """The rows :func:`generate_relations` builds, without their copies, in
    the same order; both lists assemble to one matrix (module docstring)."""
    return _placed_rows(ds, budget, copies=False)


def _placed_rows(ds: DiagramSet, budget: Budget | None, copies: bool) -> list[Relation]:
    """Each diagram's rows in set order, built once per active list."""
    budget = ensure_budget(budget)
    # bare-circle pattern -> the indices of its diagrams, in set order
    patterns: dict[tuple[bool, ...], list[int]] = {}
    for i, d in enumerate(ds.diagrams):
        starts = d.rep.starts
        patterns.setdefault(tuple([lo == hi for lo, hi in zip(starts, starts[1:])]),
                            []).append(i)
    feet_of = ds.term_feet(budget)
    built: dict[tuple[Term, ...], list[list[Row]]] = {}
    placed: list[list[Relation]] = [[] for _ in ds.diagrams]
    for where in patterns.values():
        budget.check_time()
        reps = [ds.diagrams[i].rep for i in where]
        active = tuple([(rep.feet, active_starts(rep.starts)) for rep in reps])
        if active not in built:
            built[active] = _active_rows(active, feet_of, budget, copies)
        # where is increasing, so a row sorted by local column stays sorted;
        # a pattern of the set's first diagrams shares the rows as built
        first = where[-1] == len(where) - 1
        for i, rows in zip(where, built[active]):
            placed[i] = [Relation(row if first else tuple([(where[c], v) for c, v in row]))
                         for row in rows]
    return [row for rows in placed for row in rows]


def check_component_preservation(rel: Relation, ds: DiagramSet) -> bool:
    """True iff every diagram in the row has the same components, each with
    the same number of chords."""
    profiles = set()
    for idx, coef in rel.coeffs:
        if coef == 0:
            continue
        rep = ds.diagrams[idx].rep
        masks = chord_circles(rep.feet, circle_owners(rep.starts))
        profiles.add(tuple([(part, sum(1 for mask in masks if mask & part))
                            for part in components(masks, rep.m)]))
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
    return artifact_text(relations_name(ds.m, ds.n),
                         f"connected={int(ds.connected_only)} rows={len(rows)} "
                         f"nonzero={nonzero} count={len(ds)} diagrams-digest={ds.digest}",
                         body)


def relations_from_text(text: str, ds: DiagramSet) -> list[Relation]:
    """The rows of a relations file over ``ds``; each row must hold nonzero
    coefficients on strictly increasing columns of ``ds``, and the file
    must be exactly the text :func:`relations_to_text` writes for them."""
    try:
        rows = [Relation(tuple((int(i), int(c)) for i, c in
                               (tok.split(":") for tok in line.split())))
                for line in text.split("\n")[2::2]]
    except ValueError as exc:
        raise DiagramError(f"malformed relation file: {exc}") from exc
    for k, row in enumerate(rows):
        columns = [i for i, _ in row.coeffs]
        if columns != sorted(set(columns)) or not all(0 <= i < len(ds) and c
                                                      for i, c in row.coeffs):
            raise DiagramError(f"relation row {k} is not a row of nonzero coefficients "
                               f"on increasing columns of the {len(ds)} diagrams")
    try:
        written = relations_to_text(ds, rows)
    except ChordBasisError:
        written = None
    if written != text:
        raise DiagramError("relation file is not the text written for its rows "
                           "over this diagram set")
    return rows
