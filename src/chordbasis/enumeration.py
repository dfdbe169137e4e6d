"""Exhaustive, duplicate-free generation of chord diagrams.

For each feet-count vector (one weak composition of 2n over the m circles)
every perfect matching of the 2n feet positions is generated with chords
numbered by first occurrence, together with its pair mask: one bit per
chord, naming the chord's two positions.  Rotating each circle's block and
numbering the chords afresh maps a matching to another matching of the
same diagram, so the matchings fall into orbits, one per diagram (orbit
marking, the first step of isomorph-free generation; McKay, J. Algorithms
26, 1998).  The matchings are walked in order.  A matching with a chord
that no diagram of the set's family can hold (:func:`_impossible_chords`)
is skipped first, by one integer test of its pair mask; a matching already
marked is skipped next.  Neither is examined further.  Any other matching
is the first of its orbit: for a connected set it is tested for
connectivity straight from its feet, and a disconnected one is dropped
without building its orbit.  A kept matching builds the whole :func:`orbit`
and marks every image with the orbit's least member, the diagram's
canonical form.  This yields the canonical form of every diagram exactly
once, without a canonicalizer call and without the quadratic retained-list
scan of the naive method (which is kept as :func:`enumerate_all_naive` for
cross-checking).

A set holds one family of the (m, n) diagrams, its ``kind``
(:data:`KINDS`).  A family rules out a chord on three kinds of position
pair, each of which decides the family test alone.  In a tree of circles
(n = m - 1, connected or unframed), a chord inside one circle leaves the
diagram disconnected.  In a connected set on m >= 2 circles, a chord on
the two feet of a two-foot circle cuts that circle off.  In an unframed
set with n >= m, a chord on two cyclically adjacent feet is isolated; the
unframed sets are the connected diagrams without an isolated chord, the
family of ``basis.dim_C``'s splitting.  Each property survives
rotation and renumbering, so a kept orbit holds no skipped matching.  An
unframed set's :meth:`DiagramSet.term_feet` gives a dropped term no feet,
so the rows drop it: such a term is in no map, and only on that miss does
it run :func:`diagrams.isolated_chord_test`, which reads the pairs of
:func:`diagrams.adjacent_positions` that the walk's mask is built from.

The marks are the set's orbit maps, two per active block.  The image map
takes every orbit image to its diagram's canonical feet, together with
the position in them of each position of the orbit's first member: one
pair per orbit, shared by its images.  The rotation map takes every image
to the rotation that gives it from the first member, as the position map
:func:`orbit` returns; those maps are tuples shared by the whole block, so
the second map costs one dict entry per image and no object.  Together
they carry a position of any term into its canonical feet, which is how
relation generation names the slot a row fills.  :class:`DiagramSet` owns
the maps, and only its :meth:`DiagramSet.term_feet` reads them, so no
other module knows their layout.  A set without maps (not enumerated, or
released by ``basis.quotient``) gets them built afresh, one orbit per
distinct term.

The canonical feet of a feet-count vector depend only on its nonzero
parts, its active block (see :func:`active_starts`).  Each call walks every
distinct active block once and places its sorted feet on every vector with
those nonzero parts.  Every block has the same 2n positions, so every
block walks the same matchings and pair masks: :func:`_matchings` runs
once per call, inside the first block's walk (where the time budget is
checked as they are generated), and its output is kept as a list for the
other walks only when there are other blocks.  Each block tests them
against its own mask of impossible chords.  The candidate budget is still
charged every matching of every vector.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator

from .budget import Budget, ensure_budget
from .cache import artifact_text, content_digest, diagrams_name, header_fields
from .diagrams import (
    ChordDiagram,
    StringRep,
    _trusted,
    active_starts,
    adjacent_positions,
    canonicalize,
    chord_circles,
    circle_owners,
    components,
    is_connected,
    isolated_chord_test,
    orbit,
    parse,
    relabel,
)
from .errors import ChordBasisError, DiagramError

# the families of (m, n) diagrams a set can hold (module docstring)
KINDS = ("all", "active", "connected", "unframed")


# the feet of a perfect matching and its pair mask (_matchings)
Matching = tuple[tuple[int, ...], int]
# every orbit image of one active block -> the canonical feet of its
# diagram, with the position in them of each position of the orbit's first
# member (one pair per orbit)
Images = dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]
# every orbit image of one active block -> the rotation that gives it from
# the orbit's first member, as a position map (diagrams.orbit)
Rotations = dict[tuple[int, ...], tuple[int, ...]]


def _add_orbit(images: Images, rotations: Rotations, feet: tuple[int, ...],
               starts: tuple[int, ...]) -> tuple[int, ...]:
    """Map every image of the orbit of ``feet`` in both maps of its block,
    and return the orbit's least member, the canonical feet."""
    members = orbit(feet, starts)
    canonical = min(members)
    # the canonical feet hold position onto[p] of feet at p; invert that
    onto = members[canonical]
    images.update(dict.fromkeys(members, (canonical, tuple(sorted(range(len(onto)),
                                                                 key=onto.__getitem__)))))
    rotations.update(members)
    return canonical


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise DiagramError(f"unknown diagram family {kind!r} (one of {', '.join(KINDS)})")


class DiagramSet:
    """Sorted set of distinct canonical diagrams of one (m, n) and ``kind``."""

    def __init__(self, m: int, n: int, kind: str, diagrams: tuple[ChordDiagram, ...]):
        _check_kind(kind)
        self.m = m
        self.n = n
        self.kind = kind
        self.diagrams = diagrams
        # keyed by the canonical (feet, starts), which identifies a diagram
        self._index = {(d.rep.feet, d.rep.starts): i for i, d in enumerate(diagrams)}
        # the orbit maps enumeration built, until released; not part of the
        # set's identity or its file
        self._images: dict[tuple[int, ...], tuple[Images, Rotations]] | None = None

    def __len__(self) -> int:
        return len(self.diagrams)

    def __iter__(self) -> Iterator[ChordDiagram]:
        return iter(self.diagrams)

    def __contains__(self, d: ChordDiagram) -> bool:
        return (d.rep.feet, d.rep.starts) in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiagramSet)
            and (self.m, self.n, self.kind) == (other.m, other.n, other.kind)
            and self.diagrams == other.diagrams
        )

    @property
    def connected_only(self) -> bool:
        """The ``connected=`` flag of the set's files, which name every
        (m, n) diagram or the connected ones; raises
        :class:`ChordBasisError` for a family no file names."""
        if self.kind not in ("all", "connected"):
            raise ChordBasisError(f"no file names the {self.kind} diagrams "
                                  f"of (m={self.m}, n={self.n})")
        return self.kind == "connected"

    def term_feet(self, budget: Budget | None = None
                  ) -> Callable[..., tuple[tuple[int, ...], int] | None]:
        """A function from a term (feet, active starts) of the set and a
        position ``pos`` of it to the term's canonical feet and the position
        where ``pos`` lands in them, ``None`` for a term the set's family
        drops (one with an isolated chord, in an unframed set), raising
        ``KeyError`` for any other term; a set without orbit maps builds one
        :func:`orbit` per distinct term for it.

        The rotation map carries ``pos`` to a position of the orbit's first
        member, and the image map carries that to the canonical feet.  On a
        diagram with automorphisms the result is one of the equivalent
        positions, all of which carry the same four-term rows.  A term is
        looked up first: a dropped term is in no map, so the isolation test
        runs only on a miss, where it tells a dropped term from one the set
        lacks."""
        maps = self._images
        if maps is None:
            budget = ensure_budget(budget)
            maps = {}
            for d in self.diagrams:
                feet, starts = d.rep.feet, active_starts(d.rep.starts)
                if starts not in maps:
                    maps[starts] = ({}, {})
                if feet not in maps[starts][0]:
                    budget.check_time()
                    _add_orbit(*maps[starts], feet, starts)
        # a connected diagram with n = m - 1 chords has no chord with both
        # feet on one circle, so nothing is tested there
        drops = self.kind == "unframed" and self.n >= self.m
        isolated = cache(isolated_chord_test)  # one test per block

        def feet_of(feet: tuple[int, ...], starts: tuple[int, ...], pos: int
                    ) -> tuple[tuple[int, ...], int] | None:
            try:
                images, rotations = maps[starts]
            except KeyError:
                images = rotations = {}  # a rebuilt set lacks the block
            # every key is numbered by first occurrence, so a hit needs no
            # relabel; a relabel keeps positions
            found = images.get(feet)
            if found is None:
                feet = relabel(feet)
                found = images.get(feet)
                if found is None:
                    # a term the family drops is in no map
                    if drops and isolated(starts)(feet):
                        return None
                    raise KeyError((feet, starts))
            canonical, back = found
            return canonical, back[rotations[feet][pos]]

        return feet_of

    def release_orbit_maps(self) -> None:
        """Drop the orbit maps enumeration built, freeing their memory."""
        self._images = None

    def index_of(self, d: ChordDiagram) -> int:
        try:
            return self._index[(d.rep.feet, d.rep.starts)]
        except KeyError:
            raise DiagramError(f"{d} is not in the enumerated set") from None

    @cached_property
    def digest(self) -> str:
        """The ``digest=`` of the diagram-set file, which the relations and
        basis files cite as ``diagrams-digest=``."""
        return content_digest(self._body())

    def _body(self) -> str:
        return "".join(str(d) + "\n" for d in self.diagrams)

    def to_text(self) -> str:
        return artifact_text(diagrams_name(self.m, self.n, self.connected_only),
                             f"count={len(self.diagrams)}", self._body())

    @classmethod
    def from_text(cls, text: str) -> "DiagramSet":
        """The set a diagram-set file names; the file must be exactly the
        text :meth:`to_text` writes for the sorted set of the canonical
        diagrams its body names, each of the header's (m, n) and connected
        when the header says so."""
        header, _, body = text.partition("\n")
        try:
            fields = header_fields(header)
            m, n = int(fields["m"]), int(fields["n"])
            connected = bool(int(fields["connected"]))
        except (KeyError, ValueError) as exc:
            raise DiagramError(f"malformed diagram file header {header!r}") from exc
        # "" is a real body line: the bare one-circle diagram
        diagrams = sorted({canonicalize(parse(ln)) for ln in body.split("\n")[:-1]})
        ds = cls(m, n, "connected" if connected else "all", tuple(diagrams))
        if ds.to_text() != text or any((d.m, d.n) != (m, n) or connected and not is_connected(d)
                                       for d in diagrams):
            raise DiagramError("diagram file is not the text written for the set it names")
        return ds


def _compositions(total: int, parts: int, minimum: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` parts >= minimum."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _matchings(size: int) -> Iterator[Matching]:
    """Feet sequences of every perfect matching of ``size`` positions, chords
    numbered by first occurrence, each with its pair mask: bit
    ``p * size + q`` is set for a chord with feet at positions p < q.  The
    leftmost free position is paired with each later free position in turn,
    one bit added to the mask per chord."""
    feet = [-1] * size

    def extend(label: int, first: int, pairs: int) -> Iterator[Matching]:
        while first < size and feet[first] >= 0:
            first += 1
        if first == size:
            yield tuple(feet), pairs
            return
        feet[first] = label
        row = first * size
        for j in range(first + 1, size):
            if feet[j] < 0:
                feet[j] = label
                yield from extend(label + 1, first + 1, pairs | 1 << row + j)
                feet[j] = -1
        feet[first] = -1

    yield from extend(0, 0, 0)


def _impossible_chords(kind: str, m: int, n: int, starts: tuple[int, ...]) -> int:
    """The pair mask (:func:`_matchings`) of the position pairs of the
    active block ``starts`` that no diagram of the family ``kind`` holds
    as a chord."""
    circles = list(zip(starts, starts[1:]))
    if kind in ("connected", "unframed") and n == m - 1:
        # a tree of circles: every chord joins two circles
        pairs = [(p, q) for lo, hi in circles for p in range(lo, hi) for q in range(p + 1, hi)]
    elif kind == "unframed":
        # n >= m here: a chord with adjacent feet is isolated
        pairs = adjacent_positions(starts)
    elif kind == "connected" and m >= 2:
        # a chord on the two feet of a circle cuts that circle off
        pairs = [(lo, lo + 1) for lo, hi in circles if hi - lo == 2]
    else:
        pairs = []
    size, mask = starts[-1], 0
    for p, q in pairs:
        mask |= 1 << min(p, q) * size + max(p, q)
    return mask


def _double_factorial_odd(n: int) -> int:
    """(2n-1)!! = number of perfect matchings of 2n points."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


def _candidates_for_starts(starts: tuple[int, ...], matchings: Iterable[Matching],
                           impossible: int, connected_only: bool, budget: Budget
                           ) -> tuple[Images, Rotations, list[tuple[int, ...]]]:
    """The two orbit maps of the diagrams with these ``starts`` (only the
    connected ones with ``connected_only``) that hold no chord of the pair
    mask ``impossible``, and their canonical feet; ``matchings`` are the
    feet of every perfect matching of the block's positions with their
    pair masks, in :func:`_matchings` order.

    The rotations of the circles act on the matchings; each orbit is one
    diagram.  A matching with an impossible chord is skipped first, and a
    matching already mapped next, both unexamined; any other is the first
    of its orbit, and a connected one maps the whole orbit to its least
    member, the diagram's canonical feet.  A disconnected one is dropped
    before its orbit is built.
    """
    circle = circle_owners(starts)
    m = len(starts) - 1
    everything = (1 << m) - 1
    images: Images = {}
    rotations: Rotations = {}
    found = []
    for feet, pairs in matchings:
        if pairs & impossible or feet in images:
            continue
        budget.check_time()
        if connected_only and next(components(chord_circles(feet, circle), m)) != everything:
            continue
        found.append(_add_orbit(images, rotations, feet, starts))
    return images, rotations, found


def _recorded(matchings: Iterator[Matching], kept: list[Matching]) -> Iterator[Matching]:
    """``matchings``, each appended to ``kept`` as it is yielded."""
    for matching in matchings:
        kept.append(matching)
        yield matching


def _enumerate(m: int, n: int, kind: str, budget: Budget | None) -> DiagramSet:
    """The (m, n) diagrams of the family ``kind`` (:data:`KINDS`): all of
    them, those with a foot on every circle (the active set of
    :func:`active_starts`), the connected ones, or the connected ones
    without an isolated chord (:func:`diagrams.isolated_chord_test`)."""
    _check_kind(kind)
    if m < 1:
        raise DiagramError("need at least one circle")
    if n < 0:
        raise DiagramError("chord count must be nonnegative")
    budget = ensure_budget(budget)
    connected_only = kind in ("connected", "unframed")
    # a connected diagram on two or more circles has a foot on every circle
    active_only = kind == "active" or (connected_only and m >= 2)
    if n == 0:
        # the chordless diagram, which has no adjacent pair and so no term
        # for relation generation to look up
        diagrams = () if active_only else (canonicalize(StringRep((), (0,) * (m + 1))),)
        return DiagramSet(m, n, kind, diagrams)
    if connected_only and n < m - 1:
        # Fewer chords than a spanning tree needs: nothing to enumerate.
        return DiagramSet(m, n, kind, ())
    minimum = 1 if active_only else 0
    starts_vectors = []
    for comp in _compositions(2 * n, m, minimum):
        starts = [0]
        for c in comp:
            starts.append(starts[-1] + c)
        starts_vectors.append(tuple(starts))
    per_starts = _double_factorial_odd(n)
    budget.charge_candidates(per_starts * len(starts_vectors))

    # The connectivity test sees only the active circles, which is right
    # because a connected set with m >= 2 has no bare circle.  The
    # matchings are generated once, by the first block's walk, and kept for
    # the others only when there are others.
    blocks = list(dict.fromkeys([active_starts(starts) for starts in starts_vectors]))
    kept: list[Matching] = []
    matchings: Iterable[Matching] = _matchings(2 * n)
    if len(blocks) > 1:
        matchings = _recorded(matchings, kept)
    maps: dict[tuple[int, ...], tuple[Images, Rotations]] = {}
    found = {}
    for active in blocks:
        images, rotations, canonical = _candidates_for_starts(
            active, matchings, _impossible_chords(kind, m, n, active), connected_only, budget)
        maps[active] = images, rotations
        # each block's canonical feet in order, copied, so that the set pins
        # none of the images: dropped, they free whole blocks of memory
        found[active] = [tuple(list(feet)) for feet in sorted(canonical)]
        matchings = kept
    del matchings, kept
    # compositions come in lexicographic order, and so do their starts
    diagrams = [ChordDiagram(_trusted(feet, starts))
                for starts in starts_vectors for feet in found[active_starts(starts)]]
    ds = DiagramSet(m, n, kind, tuple(diagrams))
    ds._images = maps
    return ds


def enumerate_all(m: int, n: int, budget: Budget | None = None) -> DiagramSet:
    """Every diagram with m circles and n chords, each exactly once."""
    return _enumerate(m, n, "all", budget)


def enumerate_connected(m: int, n: int, budget: Budget | None = None) -> DiagramSet:
    """The connected diagrams with m circles and n chords."""
    return _enumerate(m, n, "connected", budget)


def enumerate_all_naive(m: int, n: int) -> DiagramSet:
    """Reference generator: every labelled feet sequence, retained-list dedup.

    Exponentially slower than :func:`enumerate_all`; used only to guard the
    production generator on tiny instances.
    """
    retained: list[ChordDiagram] = []
    labels = [c for c in range(n) for _ in (0, 1)]
    for comp in _compositions(2 * n, m, 0):
        starts = [0]
        for c in comp:
            starts.append(starts[-1] + c)
        starts = tuple(starts)
        for perm in set(itertools.permutations(labels)):
            cand = canonicalize(StringRep(tuple(perm), starts))
            if all(cand != kept for kept in retained):
                retained.append(cand)
    return DiagramSet(m, n, "all", tuple(sorted(retained)))
