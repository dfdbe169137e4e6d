"""Exhaustive, duplicate-free generation of chord diagrams.

For each feet-count vector (one weak composition of 2n over the m circles)
every perfect matching of the 2n feet positions is generated with chords
numbered by first occurrence.  Rotating each circle's block and numbering
the chords afresh maps a matching to another matching of the same diagram,
so the matchings fall into orbits, one per diagram (orbit marking, the
first step of isomorph-free generation; McKay, J. Algorithms 26, 1998).
The matchings are walked in order.  A matching already marked is skipped
unexamined.  Any other matching is the first of its orbit: for a connected
set it is first tested for connectivity straight from its feet, and a
disconnected one is dropped without building its orbit.  A kept matching
builds the whole :func:`orbit` and marks every image with the orbit's
least member, the diagram's canonical form.  This yields the canonical
form of every diagram exactly once, without a canonicalizer call and
without the quadratic retained-list scan of the naive method (which is
kept as :func:`enumerate_all_naive` for cross-checking).

A set without isolated chords (``unframed``, for ``basis.dim_C``'s
splitting) drops a matching with an isolated chord before anything else
looks at it, through :func:`diagrams.isolated_chord_test` of its block.
Isolation survives rotation and renumbering, so the orbit of a kept
diagram holds no dropped matching.  A connected set with n = m - 1 chords
has no chord with both feet on one circle and tests nothing.

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
block walks the same matchings: :func:`_matchings` runs once per call,
inside the first block's walk (where the time budget is checked as they
are generated), and its matchings are kept as a list for the other walks
only when there are other blocks.  The candidate budget is still charged
every matching of every vector.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .budget import Budget, ensure_budget
from .cache import artifact_text, content_digest, diagrams_name, header_fields
from .diagrams import (
    ChordDiagram,
    StringRep,
    _trusted,
    active_starts,
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
from .errors import DiagramError


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


class DiagramSet:
    """Sorted set of distinct canonical diagrams with fixed (m, n)."""

    def __init__(self, m: int, n: int, connected_only: bool,
                 diagrams: tuple[ChordDiagram, ...], unframed: bool = False):
        self.m = m
        self.n = n
        self.connected_only = connected_only
        # the diagrams without an isolated chord only, which the one-term
        # relation does not set to zero; relation generation drops every
        # isolated term of such a set
        self.unframed = unframed
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
            and (self.m, self.n, self.connected_only, self.unframed)
            == (other.m, other.n, other.connected_only, other.unframed)
            and self.diagrams == other.diagrams
        )

    def term_feet(self, budget: Budget | None = None
                  ) -> Callable[..., tuple[tuple[int, ...], int]]:
        """A function from a term (feet, active starts) of the set and a
        position ``pos`` of it to the term's canonical feet and the position
        where ``pos`` lands in them, raising ``KeyError`` for any other
        term; a set without orbit maps builds one :func:`orbit` per distinct
        term for it.

        The rotation map carries ``pos`` to a position of the orbit's first
        member, and the image map carries that to the canonical feet.  On a
        diagram with automorphisms the result is one of the equivalent
        positions, all of which carry the same four-term rows."""
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

        def feet_of(feet: tuple[int, ...], starts: tuple[int, ...], pos: int
                    ) -> tuple[tuple[int, ...], int]:
            images, rotations = maps[starts]
            # every key is numbered by first occurrence, so a hit needs no
            # relabel; a relabel keeps positions
            found = images.get(feet)
            if found is None:
                feet = relabel(feet)
                found = images[feet]
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
        ds = cls(m, n, connected, tuple(diagrams))
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


def _matchings(size: int) -> Iterator[tuple[int, ...]]:
    """Feet sequences of every perfect matching of ``size`` positions, chords
    numbered by first occurrence; the leftmost free position is paired with
    each later free position in turn."""
    feet = [-1] * size

    def extend(label: int, first: int) -> Iterator[tuple[int, ...]]:
        while first < size and feet[first] >= 0:
            first += 1
        if first == size:
            yield tuple(feet)
            return
        feet[first] = label
        for j in range(first + 1, size):
            if feet[j] < 0:
                feet[j] = label
                yield from extend(label + 1, first + 1)
                feet[j] = -1
        feet[first] = -1

    yield from extend(0, 0)


def _double_factorial_odd(n: int) -> int:
    """(2n-1)!! = number of perfect matchings of 2n points."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


def _candidates_for_starts(starts: tuple[int, ...], matchings: Iterable[tuple[int, ...]],
                           connected_only: bool, budget: Budget
                           ) -> tuple[Images, Rotations, list[tuple[int, ...]]]:
    """The two orbit maps of the diagrams with these ``starts`` (only the
    connected ones with ``connected_only``), and their canonical feet;
    ``matchings`` are the feet of every perfect matching of the block's
    positions, in :func:`_matchings` order.

    The rotations of the circles act on the matchings; each orbit is one
    diagram.  A matching already mapped is skipped unexamined; any other
    is the first of its orbit, and a connected one maps the whole orbit to
    its least member, the diagram's canonical feet.  A disconnected one is
    dropped before its orbit is built.
    """
    circle = circle_owners(starts)
    m = len(starts) - 1
    everything = (1 << m) - 1
    images: Images = {}
    rotations: Rotations = {}
    found = []
    for feet in matchings:
        if feet in images:
            continue
        budget.check_time()
        if connected_only and next(components(chord_circles(feet, circle), m)) != everything:
            continue
        found.append(_add_orbit(images, rotations, feet, starts))
    return images, rotations, found


def _recorded(matchings: Iterator[tuple[int, ...]], kept: list[tuple[int, ...]]
              ) -> Iterator[tuple[int, ...]]:
    """``matchings``, each appended to ``kept`` as it is yielded."""
    for feet in matchings:
        kept.append(feet)
        yield feet


def _enumerate(m: int, n: int, connected_only: bool, budget: Budget | None,
               active_only: bool = False, unframed: bool = False) -> DiagramSet:
    """The (m, n) diagrams, or the connected ones; with ``active_only``
    only those with a foot on every circle, the active set of
    :func:`active_starts`; with ``unframed`` and ``connected_only`` only the
    connected ones without an isolated chord
    (:func:`diagrams.isolated_chord_test`)."""
    if m < 1:
        raise DiagramError("need at least one circle")
    if n < 0:
        raise DiagramError("chord count must be nonnegative")
    budget = ensure_budget(budget)
    # a connected diagram on two or more circles has a foot on every circle
    active_only = active_only or (connected_only and m >= 2)
    if n == 0:
        # the chordless diagram, which has no adjacent pair and so no term
        # for relation generation to look up
        diagrams = () if active_only else (canonicalize(StringRep((), (0,) * (m + 1))),)
        return DiagramSet(m, n, connected_only, diagrams, unframed)
    if connected_only and n < m - 1:
        # Fewer chords than a spanning tree needs: nothing to enumerate.
        return DiagramSet(m, n, connected_only, (), unframed)
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
    kept: list[tuple[int, ...]] = []
    matchings: Iterable[tuple[int, ...]] = _matchings(2 * n)
    if len(blocks) > 1:
        matchings = _recorded(matchings, kept)
    maps: dict[tuple[int, ...], tuple[Images, Rotations]] = {}
    found = {}
    # a connected diagram with n = m - 1 chords has no chord with both feet
    # on one circle, so it needs no isolation test
    isolated = unframed and n >= m
    for active in blocks:
        # isolation survives rotation and renumbering, so dropping a
        # matching with an isolated chord drops its whole orbit
        walk = (itertools.filterfalse(isolated_chord_test(active), matchings) if isolated
                else matchings)
        images, rotations, canonical = _candidates_for_starts(active, walk,
                                                              connected_only, budget)
        maps[active] = images, rotations
        # each block's canonical feet in order, copied, so that the set pins
        # none of the images: dropped, they free whole blocks of memory
        found[active] = [tuple(list(feet)) for feet in sorted(canonical)]
        matchings = kept
    del matchings, kept
    # compositions come in lexicographic order, and so do their starts
    diagrams = [ChordDiagram(_trusted(feet, starts))
                for starts in starts_vectors for feet in found[active_starts(starts)]]
    ds = DiagramSet(m, n, connected_only, tuple(diagrams), unframed)
    ds._images = maps
    return ds


def enumerate_all(m: int, n: int, budget: Budget | None = None) -> DiagramSet:
    """Every diagram with m circles and n chords, each exactly once."""
    return _enumerate(m, n, False, budget)


def enumerate_connected(m: int, n: int, budget: Budget | None = None) -> DiagramSet:
    """The connected diagrams with m circles and n chords."""
    return _enumerate(m, n, True, budget)


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
    return DiagramSet(m, n, False, tuple(sorted(retained)))
