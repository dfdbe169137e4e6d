"""Exhaustive, duplicate-free generation of chord diagrams.

For each feet-count vector (one weak composition of 2n over the m circles)
every perfect matching of the 2n feet positions is generated with chords
numbered by first occurrence, canonicalized, and inserted into an ordered
set.  This produces exactly the canonical form of every diagram once,
without the quadratic retained-list scan of the naive method (which is kept
as :func:`enumerate_all_naive` for cross-checking).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator

from .budget import Budget, ensure_budget
from .diagrams import (
    ChordDiagram,
    StringRep,
    canonical_feet,
    canonicalize,
    is_connected,
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

    def index_of_raw(self, feet: tuple[int, ...], starts: tuple[int, ...]) -> int:
        try:
            return self._index[(feet, starts)]
        except KeyError:
            raise DiagramError("canonical form not in the enumerated set") from None

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


def _matchings(positions: list[int]) -> Iterator[list[tuple[int, int]]]:
    """All perfect matchings; the first element always pairs leftmost-first,
    so reading pairs in order gives the first-occurrence chord numbering."""
    if not positions:
        yield []
        return
    first = positions[0]
    for i in range(1, len(positions)):
        rest = positions[1:i] + positions[i + 1:]
        for sub in _matchings(rest):
            yield [(first, positions[i])] + sub


def _double_factorial_odd(n: int) -> int:
    """(2n-1)!! = number of perfect matchings of 2n points."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


def _candidates_for_starts(starts: tuple[int, ...], n: int,
                           connected_only: bool) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for match in _matchings(list(range(2 * n))):
        feet = [0] * (2 * n)
        for label, (p, q) in enumerate(match):
            feet[p] = label
            feet[q] = label
        feet_t = tuple(feet)
        if connected_only and not is_connected(StringRep(feet_t, starts)):
            continue
        found.add((canonical_feet(feet_t, starts), starts))
    return found


def _enumerate(m: int, n: int, connected_only: bool,
               budget: Budget | None) -> DiagramSet:
    if m < 1:
        raise DiagramError("need at least one circle")
    if n < 0:
        raise DiagramError("chord count must be nonnegative")
    budget = ensure_budget(budget)
    if n == 0:
        starts = (0,) * (m + 1)
        if connected_only and m >= 2:
            return DiagramSet(m, n, connected_only, ())
        empty = canonicalize(StringRep((), starts))
        return DiagramSet(m, n, connected_only, (empty,))
    if connected_only and n < m - 1:
        # Fewer chords than a spanning tree needs: nothing to enumerate.
        return DiagramSet(m, n, connected_only, ())
    minimum = 1 if (connected_only and m >= 2) else 0
    starts_vectors = []
    for comp in _compositions(2 * n, m, minimum):
        starts = [0]
        for c in comp:
            starts.append(starts[-1] + c)
        starts_vectors.append(tuple(starts))
    per_starts = _double_factorial_odd(n)
    budget.charge_candidates(per_starts * len(starts_vectors))

    found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for starts in starts_vectors:
        budget.check_time()
        found |= _candidates_for_starts(starts, n, connected_only)
    diagrams = tuple(
        ChordDiagram(StringRep(feet, starts))
        for feet, starts in sorted(found, key=lambda fs: (fs[1], fs[0]))
    )
    return DiagramSet(m, n, connected_only, diagrams)


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
