"""Chord diagrams on labelled circles and their canonical string form.

A diagram with m circles and n chords is stored as a *string representation*:
a feet sequence of length 2n (the chord label at each boundary point, read
clockwise around circle 0, then circle 1, ...) together with a nondecreasing
``starts`` tuple of m+1 indices marking where each circle's block begins;
``starts[0] == 0`` and ``starts[m] == 2n``.  Each chord label in ``[0, n)``
occurs exactly twice.  Empty circles are legal.

Two representations describe the same diagram exactly when they differ by a
rotation of each circle's block and a relabelling of the chords.  The
*canonical form* is the lexicographically least feet sequence over all
per-circle rotations, with chords renumbered by first occurrence; it is the
identity of a diagram and the total order on diagrams is lexicographic on
(m, n, starts, feet).

The set pipeline (enumeration, then relation generation) walks each
diagram's :func:`orbit` and takes its least member.  A single diagram has
no orbit at hand, so :func:`canonical_feet` finds its canonical form by a
branch-and-bound search over the circles, which prunes what the orbit
would list in full.  The brute force over every combination of rotations
is kept as the defining oracle that the ``canonical-roundtrips`` check and
the tests compare both against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DiagramError


@dataclass(frozen=True)
class StringRep:
    """A raw (not necessarily canonical) string representation."""

    feet: tuple[int, ...]
    starts: tuple[int, ...]

    def __post_init__(self):
        validate(self.feet, self.starts)

    @property
    def m(self) -> int:
        return len(self.starts) - 1

    @property
    def n(self) -> int:
        return len(self.feet) // 2

    def block(self, i: int) -> tuple[int, ...]:
        """Feet of circle i, in clockwise order."""
        return self.feet[self.starts[i]:self.starts[i + 1]]

    def blocks(self) -> list[tuple[int, ...]]:
        return [self.block(i) for i in range(self.m)]

    def __str__(self) -> str:
        return format_rep(self)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Sequence[int]]) -> "StringRep":
        """The rep whose circle i carries the feet ``blocks[i]``."""
        feet: list[int] = []
        starts = [0]
        for b in blocks:
            feet.extend(b)
            starts.append(len(feet))
        return cls(tuple(feet), tuple(starts))


def validate(feet: Sequence[int], starts: Sequence[int]) -> None:
    """Raise DiagramError unless (feet, starts) is a valid string rep."""
    if len(starts) < 2:
        raise DiagramError("need at least one circle")
    if starts[0] != 0 or starts[-1] != len(feet):
        raise DiagramError(f"starts {starts} do not span the feet sequence")
    for a, b in zip(starts, starts[1:]):
        if b < a:
            raise DiagramError(f"starts {starts} not nondecreasing")
    if len(feet) % 2:
        raise DiagramError("odd number of chord feet")
    n = len(feet) // 2
    counts = [0] * n
    for c in feet:
        if not isinstance(c, int) or not 0 <= c < n:
            raise DiagramError(f"chord label {c!r} outside [0, {n})")
        counts[c] += 1
    for c, k in enumerate(counts):
        if k != 2:
            raise DiagramError(f"chord label {c} occurs {k} times, expected 2")


def relabel(feet: Iterable[int]) -> tuple[int, ...]:
    """``feet`` with its chords renumbered 0, 1, ... by first occurrence."""
    labels: dict[int, int] = {}
    return tuple([labels.setdefault(c, len(labels)) for c in feet])


@lru_cache(maxsize=64)
def _rotations(starts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """One position map per choice of one rotation per circle, in product
    order: entry p is the position whose foot the rotation brings to p.
    The maps are shared by every orbit with these ``starts``."""
    turns = [[tuple(range(lo + r, hi)) + tuple(range(lo, lo + r)) for r in range(hi - lo)]
             or [()] for lo, hi in zip(starts, starts[1:])]
    return tuple(map(tuple, map(itertools.chain.from_iterable, itertools.product(*turns))))


def orbit(feet: tuple[int, ...], starts: tuple[int, ...]
          ) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every rotation of every circle of ``feet``, relabelled by first
    occurrence: the feet sequences with these ``starts`` that are the same
    diagram.  Its least member is the canonical form, and ``relabel`` maps
    every representation of the diagram with these ``starts`` into it.

    Each image maps to a rotation that gives it, as a position map: the
    image's position p holds the foot at position ``rotation[p]`` of
    ``feet``, relabelled.  The maps are shared tuples (one per choice of
    rotations, for all orbits with these ``starts``), so an image costs no
    object of its own."""
    rotations = []
    for lo, hi in zip(starts, starts[1:]):
        block = feet[lo:hi]
        rotations.append([block[r:] + block[:r] for r in range(len(block))] or [block])
    images = map(relabel, map(itertools.chain.from_iterable, itertools.product(*rotations)))
    return dict(zip(images, _rotations(starts)))


def circle_owners(starts: Sequence[int]) -> list[int]:
    """The circle owning each feet position: circle ``circle_owners(starts)[p]``
    holds position p of every rep with these ``starts``."""
    return [i for i, (lo, hi) in enumerate(zip(starts, starts[1:]))
            for _ in range(lo, hi)]


def chord_circles(feet: Sequence[int], owners: Sequence[int]) -> list[int]:
    """The circles each chord touches, one bitmask per chord label: bit i
    of entry c is set iff chord c has a foot on circle i, where circle
    ``owners[p]`` (see :func:`circle_owners`) holds position p."""
    masks = [0] * (len(feet) // 2)
    for c, i in zip(feet, owners):
        masks[c] |= 1 << i
    return masks


def components(masks: Sequence[int], m: int) -> Iterator[int]:
    """The connected components of ``m`` circles joined by chords with the
    circle masks ``masks`` (see :func:`chord_circles`), as circle masks in
    order of their lowest circle; each is found only when it is asked for."""
    left = (1 << m) - 1
    while left:
        reached = left & -left
        while reached != left:
            grown = reached
            for mask in masks:
                if mask & grown:
                    grown |= mask
            if grown == reached:
                break
            reached = grown
        yield reached
        left ^= reached


def adjacent_positions(starts: Sequence[int]) -> list[tuple[int, int]]:
    """Every pair of positions cyclically adjacent on one circle, each
    pair once: (p, p + 1) along a circle, then (last, first) on a circle
    of three or more feet.  A chord on such a pair is isolated."""
    pairs = []
    for lo, hi in zip(starts, starts[1:]):
        pairs += [(p, p + 1) for p in range(lo, hi - 1)]
        if hi - lo > 2:
            pairs.append((hi - 1, lo))
    return pairs


def isolated_chord_test(starts: Sequence[int]) -> Callable[[Sequence[int]], bool]:
    """A test of the feet with these ``starts``: true iff some chord is
    isolated, its two feet on a pair of :func:`adjacent_positions`.  Two
    ``operator.itemgetter`` calls pick the feet of every pair at once;
    ``starts`` must give some circle two feet."""
    pairs = adjacent_positions(starts)
    if len(pairs) == 1:
        pairs *= 2  # a getter of one position returns the foot, not a tuple
    left = itemgetter(*[p for p, _ in pairs])
    right = itemgetter(*[q for _, q in pairs])
    return lambda feet: any(map(eq, left(feet), right(feet)))


def active_starts(starts: Sequence[int]) -> tuple[int, ...]:
    """The starts of the active block: ``starts`` without its bare circles.

    A bare circle has no feet and one rotation, so it adds nothing to a
    canonical form.  A four-term edit neither empties a circle (the moving
    foot's circle keeps its partner in the pair) nor fills a bare one, so a
    diagram and its four-term rows are those of its active block placed on
    its circles: bare circles are only a placement.  The (m, n) relation
    matrix therefore splits into one block per bare-circle pattern, each a
    copy of the active set on the k circles that are not bare (the diagrams
    with a foot on every circle), and

        A(m, n) = sum over k of binom(m, k) * D_k(n),

    where D_k(n) is the dimension of the active set on k circles modulo
    the four-term relation, zero for k > 2n.  Enumeration walks each active
    block once, relation generation builds the rows of each active list
    once, and the direct rank in ``verify`` sums the D_k.
    """
    return tuple(dict.fromkeys(starts))


def canonical_feet_bruteforce(feet: tuple[int, ...],
                              starts: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least feet sequence over all per-circle rotations.

    Chords are renumbered by first occurrence across the whole rotated
    string, so the chosen labelling never matters.  This is the defining
    oracle: it tries every combination of rotations, and only the
    ``canonical-roundtrips`` check and the tests call it, to guard
    :func:`canonical_feet` and the least member of :func:`orbit`.
    """
    n = len(feet) // 2
    m = len(starts) - 1
    blocks = [feet[starts[i]:starts[i + 1]] for i in range(m)]
    best = None
    for rots in itertools.product(*(range(len(b)) if b else (0,) for b in blocks)):
        labmap = [-1] * n
        nxt = 0
        out = []
        append = out.append
        for b, r in zip(blocks, rots):
            if r:
                b = b[r:] + b[:r]
            for c in b:
                v = labmap[c]
                if v < 0:
                    v = labmap[c] = nxt
                    nxt += 1
                append(v)
        t = tuple(out)
        if best is None or t < best:
            best = t
    return best if best is not None else ()


def canonical_feet(feet: tuple[int, ...], starts: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical feet sequence, by branch-and-bound search one circle at a time.

    On a circle sharing a chord with an earlier circle the minimal feet
    sequence must start at a foot of the least already-numbered chord; all
    positions achieving that label are tried (tie branching), so the result
    provably equals the brute-force oracle.  Circles with no earlier chord
    fall back to trying every rotation.

    Every branch kept after a circle has the same prefix and the same next
    label, so those are kept once and a branch is its chord numbering.  When
    branches tie, the chords with no foot on a later circle are forgotten and
    equal numberings merge, since they have the same future: ties on
    symmetric circles (``0101|2323|...``, ``00|11|...``) stay one branch.
    """
    n = len(feet) // 2
    prefix: list[int] = []
    nxt = 0
    # the chord numberings of the kept branches; -1 is not numbered
    states: Iterable[Sequence[int]] = [(-1,) * n]
    for lo, hi in zip(starts, starts[1:]):
        b = feet[lo:hi]
        size = len(b)
        best = None
        for labmap in states:
            assigned = [labmap[c] for c in b if labmap[c] >= 0]
            if assigned:
                mu = min(assigned)
                rotations = [r for r in range(size) if labmap[b[r]] == mu]
            else:
                rotations = list(range(size)) if size else [0]
            for r in rotations:
                rb = b[r:] + b[:r] if r else b
                lm = list(labmap)
                k = nxt
                ext = []
                for c in rb:
                    v = lm[c]
                    if v < 0:
                        v = lm[c] = k
                        k += 1
                    ext.append(v)
                if best is None or ext < best:
                    best, nxt_after, kept = ext, k, [lm]
                elif ext == best:
                    kept.append(lm)
        prefix += best
        nxt = nxt_after
        if len(kept) > 1:
            # a lone branch needs no forgetting: its closed chords are numbered
            # alike in every branch it leads to
            rest = feet[hi:]
            for lm in kept:
                for c in b:
                    if c not in rest:
                        lm[c] = -1
            states = set(map(tuple, kept))
        else:
            states = kept
    return tuple(prefix)


@total_ordering
@dataclass(frozen=True)
class ChordDiagram:
    """A chord diagram, identified by its canonical string representation.

    Instances are produced by :func:`canonicalize` (or :func:`diagram`);
    the stored rep is always canonical.
    """

    rep: StringRep

    @property
    def m(self) -> int:
        return self.rep.m

    @property
    def n(self) -> int:
        return self.rep.n

    @property
    def sort_key(self) -> tuple:
        return (self.m, self.n, self.rep.starts, self.rep.feet)

    def __lt__(self, other: "ChordDiagram") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return format_rep(self.rep)


def _trusted(feet: tuple[int, ...], starts: tuple[int, ...]) -> StringRep:
    """The rep (feet, starts) of feet valid by construction, not validated."""
    rep = object.__new__(StringRep)
    object.__setattr__(rep, "feet", feet)
    object.__setattr__(rep, "starts", starts)
    return rep


def canonicalize(rep: StringRep) -> ChordDiagram:
    """Canonical form of ``rep``; the identity of the underlying diagram.

    ``rep`` was validated when it was made, and its canonical feet are
    valid by construction, so the canonical rep is not validated again.
    """
    return ChordDiagram(_trusted(canonical_feet(rep.feet, rep.starts), rep.starts))


def parse(text: str) -> StringRep:
    """Parse the human diagram format, e.g. ``"0121|20"``.

    Circles are separated by '|'; a circle's feet are single digits, or
    comma-separated decimal labels once any label needs two digits
    (``"0,1,10,1|10,0"``).  The empty string is the one-circle, zero-chord
    diagram and trailing '|' separators denote trailing empty circles.
    """
    circles = text.split("|")
    blocks: list[list[int]] = []
    comma_mode = "," in text
    for part in circles:
        if part == "":
            blocks.append([])
            continue
        if comma_mode:
            labels = []
            for tok in part.split(","):
                if not (tok.isascii() and tok.isdigit()):
                    raise DiagramError(f"malformed label {tok!r} in {text!r}")
                labels.append(int(tok))
            blocks.append(labels)
        else:
            if not (part.isascii() and part.isdigit()):
                raise DiagramError(f"malformed character in {text!r}")
            blocks.append([int(ch) for ch in part])
    return StringRep.from_blocks(blocks)  # validates label counts


def format_rep(rep: StringRep) -> str:
    """Inverse of :func:`parse`: ``parse(format_rep(r)) == r``."""
    if rep.n <= 10:
        return "|".join("".join(str(c) for c in b) for b in rep.blocks())
    return "|".join(",".join(str(c) for c in b) for b in rep.blocks())


def diagram(text: str) -> ChordDiagram:
    """Parse and canonicalize in one step."""
    return canonicalize(parse(text))


def is_connected(d: ChordDiagram | StringRep) -> bool:
    """Whether the chords join every circle: the first component is all."""
    rep = d.rep if isinstance(d, ChordDiagram) else d
    masks = chord_circles(rep.feet, circle_owners(rep.starts))
    return next(components(masks, rep.m)) == (1 << rep.m) - 1


def permute_circles(d: ChordDiagram, sigma: Sequence[int]) -> ChordDiagram:
    """Relabel the circles by ``sigma`` (circle i becomes circle sigma[i]).

    Block i of the result is block sigma^-1(i) of the input; the result is
    re-canonicalized.  This is a left action: applying tau then sigma equals
    applying their composite sigma o tau.
    """
    m = d.m
    if sorted(sigma) != list(range(m)):
        raise DiagramError(f"{sigma!r} is not a permutation of 0..{m - 1}")
    inverse = sorted(range(m), key=sigma.__getitem__)
    return canonicalize(StringRep.from_blocks(d.rep.block(j) for j in inverse))


def disjoint_union(parts: Iterable[tuple[ChordDiagram, Sequence[int]]]) -> ChordDiagram:
    """Assemble a diagram from sub-diagrams placed on given circle indices.

    Each entry is (diagram, target circles); the target lists must together
    partition 0..M-1 where M is the total circle count.  Chord labels are
    shifted so the parts stay disjoint, and the union is canonicalized.
    """
    parts = list(parts)
    m_total = sum(d.m for d, _ in parts)
    placed: dict[int, tuple[int, ...]] = {}
    offset = 0
    for d, targets in parts:
        targets = list(targets)
        if len(targets) != d.m:
            raise DiagramError(
                f"part with {d.m} circles given {len(targets)} target indices"
            )
        for local, t in enumerate(targets):
            if t in placed:
                raise DiagramError(f"target circle {t} used twice")
            placed[t] = tuple(c + offset for c in d.rep.block(local))
        offset += d.n
    if sorted(placed) != list(range(m_total)):
        raise DiagramError("target circle lists do not partition the circles")
    return canonicalize(StringRep.from_blocks(placed[i] for i in range(m_total)))

