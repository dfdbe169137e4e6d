"""Exhaustive, duplicate-free generation of chord diagrams.

For each feet-count vector (one weak composition of 2n over the m circles)
every perfect matching of the 2n feet positions is generated with chords
numbered by first occurrence.  Rotating each circle's block and numbering
the chords afresh maps a matching to another matching of the same diagram,
so the matchings fall into orbits, one per diagram (orbit marking, the
first step of isomorph-free generation; McKay, J. Algorithms 26, 1998).
The matchings are walked in order.  The first matching of an orbit builds
the whole :func:`orbit`, marks it as seen, and is tested for connectivity
straight from its feet; the orbit's least member is the diagram's
canonical form, and its later members are skipped unexamined.  The seen
set holds at most (2n-1)!! matchings and is dropped after each vector.
This yields the canonical form of every diagram exactly once, without a
canonicalizer call and without the quadratic retained-list scan of the
naive method (which is kept as :func:`enumerate_all_naive` for
cross-checking).

The canonical feet of a feet-count vector depend only on its nonzero
parts, its active block (see :func:`active_starts`).  Each call walks every
distinct active block once and places its sorted feet on every vector with
those nonzero parts.  The candidate budget is still charged every matching
of every vector.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator

from .budget import Budget, ensure_budget
from .diagrams import (
    ChordDiagram,
    StringRep,
    active_starts,
    canonicalize,
    circle_owners,
    orbit,
    parse,
)
from .errors import DiagramError
from .util import content_digest


class DiagramSet:
    """Sorted set of distinct canonical diagrams with fixed (m, n)."""

    def __init__(self, m: int, n: int, connected_only: bool,
                 diagrams: tuple[ChordDiagram, ...]):
        self.m = m
        self.n = n
        self.connected_only = connected_only
        self.diagrams = diagrams
        # keyed by the canonical (feet, starts), which identifies a diagram
        self._index = {(d.rep.feet, d.rep.starts): i for i, d in enumerate(diagrams)}

    def __len__(self) -> int:
        return len(self.diagrams)

    def __iter__(self) -> Iterator[ChordDiagram]:
        return iter(self.diagrams)

    def __contains__(self, d: ChordDiagram) -> bool:
        return (d.rep.feet, d.rep.starts) in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiagramSet)
            and (self.m, self.n, self.connected_only) == (other.m, other.n, other.connected_only)
            and self.diagrams == other.diagrams
        )

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
        header = (
            f"m={self.m} n={self.n} connected={int(self.connected_only)} "
            f"count={len(self.diagrams)} digest={self.digest}"
        )
        return header + "\n" + self._body()

    @classmethod
    def from_text(cls, text: str) -> "DiagramSet":
        lines = text.split("\n")
        try:
            fields = dict(item.split("=", 1) for item in lines[0].split())
            m, n = int(fields["m"]), int(fields["n"])
            connected = bool(int(fields["connected"]))
            count = int(fields["count"])
        except (KeyError, ValueError) as exc:
            raise DiagramError(f"malformed diagram file header {lines[0]!r}") from exc
        body_lines = lines[1:]
        if body_lines and body_lines[-1] == "":
            body_lines.pop()  # trailing-newline artifact; "" is a real
            # diagram line only for the bare one-circle diagram
        if len(body_lines) != count:
            raise DiagramError(
                f"diagram file count mismatch: header says {count}, "
                f"found {len(body_lines)}"
            )
        diagrams = tuple(canonicalize(parse(ln)) for ln in body_lines)
        return cls(m, n, connected, diagrams)


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


def _connected(feet: tuple[int, ...], circle: list[int], m: int) -> bool:
    """Whether the chords join all ``m`` circles; circle ``circle[p]`` owns
    position p."""
    ends: dict[int, int] = {}
    for pos, c in enumerate(feet):
        ends[c] = ends.get(c, 0) | 1 << circle[pos]
    everything = (1 << m) - 1
    reached = 1
    while reached != everything:
        grown = reached
        for mask in ends.values():
            if mask & grown:
                grown |= mask
        if grown == reached:
            return False
        reached = grown
    return True


def _candidates_for_starts(starts: tuple[int, ...], n: int, connected_only: bool,
                           budget: Budget) -> list[tuple[int, ...]]:
    """The canonical feet of every diagram with these ``starts``.

    The rotations of the circles act on the matchings; each orbit is one
    diagram.  The first matching of an orbit marks the whole orbit as
    seen, so its later members are skipped unexamined, and the orbit's
    least member is the diagram's canonical feet.
    """
    circle = circle_owners(starts)
    seen: set[tuple[int, ...]] = set()
    found = []
    for feet in _matchings(2 * n):
        if feet in seen:
            continue
        budget.check_time()
        images = orbit(feet, starts)
        seen |= images
        if connected_only and not _connected(feet, circle, len(starts) - 1):
            continue
        found.append(min(images))
    return found


def _enumerate(m: int, n: int, connected_only: bool, budget: Budget | None,
               active_only: bool = False) -> DiagramSet:
    """The (m, n) diagrams, or the connected ones; with ``active_only``
    only those with a foot on every circle, the active set of
    :func:`active_starts`."""
    if m < 1:
        raise DiagramError("need at least one circle")
    if n < 0:
        raise DiagramError("chord count must be nonnegative")
    budget = ensure_budget(budget)
    # a connected diagram on two or more circles has a foot on every circle
    active_only = active_only or (connected_only and m >= 2)
    if n == 0:
        starts = (0,) * (m + 1)
        if active_only:
            return DiagramSet(m, n, connected_only, ())
        empty = canonicalize(StringRep((), starts))
        return DiagramSet(m, n, connected_only, (empty,))
    if connected_only and n < m - 1:
        # Fewer chords than a spanning tree needs: nothing to enumerate.
        return DiagramSet(m, n, connected_only, ())
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
    # because a connected set with m >= 2 has no bare circle.
    by_block: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    diagrams = []
    # compositions come in lexicographic order, and so do their starts
    for starts in starts_vectors:
        active = active_starts(starts)
        found = by_block.get(active)
        if found is None:
            found = by_block[active] = sorted(
                _candidates_for_starts(active, n, connected_only, budget))
        diagrams.extend(ChordDiagram(StringRep(feet, starts)) for feet in found)
    return DiagramSet(m, n, connected_only, tuple(diagrams))


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
