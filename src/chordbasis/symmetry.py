"""Symmetric-group analysis of connected bases.

Circle relabellings act on diagram classes; the orbit of a basis vector is
the set of classes of its translates.  An orbit is *complete* when every
translate class is itself a basis element and *incomplete* otherwise; for an
incomplete orbit each non-basis translate, expanded over the basis, must
have a nonzero coefficient either on a basis element inside the same orbit
(type I) or on a basis element of a different incomplete orbit (type II) -
independence of the basis leaves no third case, and the implementation
asserts that.

Orbits are computed at the level of classes in the quotient, not raw
canonical strings: two translates that canonicalize differently may still be
equal modulo the four-term relation, and the published orbit counts (for
example the 6/6/3/1 split of the sixteen-dimensional three-circle space at
three chords) are class counts.

For two circles the incomplete orbits can always be repaired: a type I
orbit's basis vector b is replaced by b + sigma(b) (a fixed point), and a
type II orbit's witness beta in another incomplete orbit is replaced by
sigma(b); each round strictly lowers the incomplete-orbit count, so the loop
terminates with an equivariant basis of generalized (integer-combination)
vectors.  For three or more circles the same moves are attempted greedily,
but a failure to finish is a reported outcome, not an error.
"""

from __future__ import annotations

import copy
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .basis import BasisResult, express
from .budget import Budget, ensure_budget
from .cache import artifact_text, equivariant_name, orbits_name
from .diagrams import (
    ChordDiagram,
    StringRep,
    canonicalize,
    chord_circles,
    circle_owners,
    permute_circles,
)
from .errors import ChordBasisError, DiagramError
from .exactla import ExactMatrix, pivot_columns, rref

Coords = tuple[tuple[int, Fraction], ...]  # sparse, index-sorted, no zeros

GREEDY_MAX_ROUNDS = 200  # repair rounds before the greedy run gives up


@dataclass(frozen=True)
class GeneralizedBasisVector:
    """Integer/rational combination of diagrams sharing one (m, n)."""

    terms: tuple[tuple[ChordDiagram, Fraction], ...]

    def __post_init__(self):
        if not self.terms:
            raise ChordBasisError("a generalized basis vector cannot be zero")

    def __str__(self) -> str:
        return " + ".join(f"{coef}*{diag}" for diag, coef in self.terms)


def vector_of(d: ChordDiagram) -> GeneralizedBasisVector:
    return GeneralizedBasisVector(((d, Fraction(1)),))


def _combine(terms: Iterable[tuple[ChordDiagram, Fraction]]) -> GeneralizedBasisVector:
    """The vector summing ``terms``, with like diagrams collected."""
    acc: dict[ChordDiagram, Fraction] = {}
    for d, c in terms:
        acc[d] = acc.get(d, Fraction(0)) + c
    cleaned = tuple(sorted(((d, c) for d, c in acc.items() if c), key=lambda t: t[0]))
    return GeneralizedBasisVector(cleaned)


def vector_sum(a: GeneralizedBasisVector, b: GeneralizedBasisVector) -> GeneralizedBasisVector:
    return _combine(a.terms + b.terms)


def vector_difference(a: GeneralizedBasisVector, b: GeneralizedBasisVector) -> GeneralizedBasisVector:
    return _combine(a.terms + tuple((d, -c) for d, c in b.terms))


def apply_permutation(v: GeneralizedBasisVector, sigma: Sequence[int]) -> GeneralizedBasisVector:
    return _combine((permute_circles(d, sigma), c) for d, c in v.terms)


def class_coords(v: GeneralizedBasisVector, b: BasisResult) -> Coords:
    """Coordinates of the class of ``v`` over ``b.basis``."""
    pos = b.basis_index
    acc: dict[int, Fraction] = {}
    for d, c in v.terms:
        for diag, coef in express(d, b).items():
            i = pos[diag]
            acc[i] = acc.get(i, Fraction(0)) + c * coef
    return tuple(sorted((i, c) for i, c in acc.items() if c))


def is_basis(vectors: Sequence[GeneralizedBasisVector], b: BasisResult,
             budget: Budget | None = None) -> bool:
    """True iff the classes of the vectors form a basis of ``b``'s space."""
    return _Frame(vectors, b, budget).is_basis()


class _Frame:
    """A list of vectors with their class coordinates, the memoized class of
    each translate, and the inverse of the coordinate matrix, which answers
    coefficient questions and takes a rank-one update per replaced vector."""

    def __init__(self, vectors: Sequence[GeneralizedBasisVector], b: BasisResult,
                 budget: Budget | None = None):
        self.b = b
        self.budget = ensure_budget(budget)
        self.vectors = list(vectors)
        self.coords = [class_coords(v, b) for v in self.vectors]
        # per vector: relabelling -> (translate, its class coordinates)
        self._translates: list[dict] = [{} for _ in self.vectors]
        # row k: the coefficients of the k-th basis class over the vectors;
        # rows are replaced, never changed in place
        self._inverse: list[dict[int, Fraction]] | None = None

    def copy(self) -> "_Frame":
        # The translate memos are shared: ``replace`` gives the replaced
        # vector a fresh memo, so a shared entry stays valid for both.
        other = copy.copy(self)
        other.vectors, other.coords = self.vectors[:], self.coords[:]
        other._translates, other._inverse = self._translates[:], copy.copy(self._inverse)
        return other

    def is_basis(self) -> bool:
        dim = len(self.b.basis)
        return len(self.coords) == dim and len(
            pivot_columns(ExactMatrix(tuple(self.coords), dim), self.budget)) == dim

    def translate(self, i: int, sigma: tuple[int, ...]
                  ) -> tuple[GeneralizedBasisVector, Coords]:
        """The image of vector ``i`` under ``sigma``, with its class coordinates."""
        memo = self._translates[i]
        if sigma not in memo:
            self.budget.check_time()
            image = apply_permutation(self.vectors[i], sigma)
            memo[sigma] = (image, class_coords(image, self.b))
        return memo[sigma]

    def incomplete(self, perms: Sequence[tuple[int, ...]]
                   ) -> Iterator[tuple[int, GeneralizedBasisVector, Coords]]:
        """Each vector some translate of which leaves the vectors' classes, as
        (index, first such translate under ``perms``, its coordinates), in
        vector order."""
        known = set(self.coords)
        for i in range(len(self.vectors)):
            for sigma in perms:
                image, c = self.translate(i, sigma)
                if c not in known:
                    yield i, image, c
                    break

    def solve(self, coords: Coords) -> list[Fraction]:
        """The coefficients of the class ``coords`` over the vectors."""
        if self._inverse is None:
            self._inverse = self._invert()
        x = [Fraction(0)] * len(self.vectors)
        for k, ck in coords:
            for j, r in self._inverse[k].items():
                x[j] += ck * r
        return x

    def _invert(self) -> list[dict[int, Fraction]]:
        n = len(self.b.basis)
        if self.coords == [((k, 1),) for k in range(n)]:
            return [{k: Fraction(1)} for k in range(n)]
        # [M | I] reduces to [I | M^-1] exactly when M is square and invertible
        mat = ExactMatrix(tuple(c + ((n + k, 1),) for k, c in enumerate(self.coords)),
                          n + len(self.coords))
        result = rref(mat, self.budget)
        if result.pivots != tuple(range(n)):
            raise ChordBasisError("the vectors are not a basis of the space")
        return [{c - n: v for c, v in row if c >= n} for row in result.matrix.rows]

    def replace(self, i: int, v: GeneralizedBasisVector) -> bool:
        """Put ``v`` in place of vector ``i`` if the vectors stay a basis, that
        is if ``v`` has a nonzero coefficient on vector ``i``; otherwise leave
        the frame untouched.  Returns whether ``v`` was put in."""
        self.budget.check_time()
        c = class_coords(v, self.b)
        x = self.solve(c)
        if not x[i]:
            return False
        # The new coordinate matrix is E M, with E the identity whose row i
        # is x.  Its inverse M^-1 E^-1 differs from M^-1 only in the rows k
        # with an entry a in column i, by -a * (x - e_i) / x_i.
        step = {j: (xj - (j == i)) / x[i] for j, xj in enumerate(x) if xj}
        for k, row in enumerate(self._inverse):
            if a := row.get(i):
                self._inverse[k] = {j: w for j in row.keys() | step.keys()
                                    if (w := row.get(j, 0) - a * step.get(j, 0))}
        self.vectors[i], self.coords[i], self._translates[i] = v, c, {}
        return True


def _moving_perms(m: int) -> list[tuple[int, ...]]:
    """Every relabelling of ``m`` circles except the identity."""
    return list(itertools.permutations(range(m)))[1:]


@dataclass(frozen=True)
class Orbit:
    """One group orbit of basis-vector classes.

    ``members`` holds one representative vector per distinct class; the
    representative of a class that equals a basis element is that basis
    diagram itself.
    """

    members: tuple[GeneralizedBasisVector, ...]
    basis_members: tuple[GeneralizedBasisVector, ...]
    complete: bool
    types: frozenset[str]  # subset of {"I", "II"}, empty for complete orbits

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OrbitReport:
    m: int
    n: int
    orbits: tuple[Orbit, ...]

    @property
    def incomplete_count(self) -> int:
        return sum(1 for o in self.orbits if not o.complete)

    def orbit_sizes(self) -> list[int]:
        return sorted((o.size for o in self.orbits), reverse=True)


def orbit_report(b: BasisResult,
                 vectors: Sequence[GeneralizedBasisVector] | None = None,
                 budget: Budget | None = None) -> OrbitReport:
    """Decompose a basis (by default ``b.basis``) into group orbits and
    classify every incomplete orbit by the expansion dichotomy."""
    if vectors is None:
        vectors = [vector_of(d) for d in b.basis]
    frame = _Frame(vectors, b, budget)
    index = {c: j for j, c in enumerate(frame.coords)}
    if len(index) != len(vectors):
        raise ChordBasisError("the supplied vectors are not pairwise distinct classes")
    perms = list(itertools.permutations(range(b.diagram_set.m)))
    partition = []  # per orbit: (class coords -> representative, vector indices)
    orbit_of: dict[int, int] = {}
    for i in range(len(vectors)):
        if i in orbit_of:
            continue
        classes: dict[Coords, GeneralizedBasisVector] = {}
        for sigma in perms:
            image, c = frame.translate(i, sigma)
            if c not in classes or str(image) < str(classes[c]):
                classes[c] = image
        inside = sorted(index[c] for c in classes if c in index)
        for j in inside:
            orbit_of[j] = len(partition)
            classes[frame.coords[j]] = frame.vectors[j]
        partition.append((classes, inside))
    incomplete = {oi for oi, (classes, inside) in enumerate(partition)
                  if len(inside) != len(classes)}
    orbits = []
    for oi, (classes, inside) in enumerate(partition):
        types: set[str] = set()
        for c in classes.keys() - index.keys():
            # type I: a coefficient inside this orbit; type II: one in
            # another incomplete orbit
            found = {"I" if orbit_of[j] == oi else "II"
                     for j, coef in enumerate(frame.solve(c))
                     if coef and orbit_of[j] in incomplete}
            if not found:
                raise ChordBasisError(
                    "expansion dichotomy violated: a non-basis translate "
                    "expands over complete orbits only"
                )
            types |= found
        orbits.append(Orbit(
            members=tuple(classes[c] for c in sorted(classes)),
            basis_members=tuple(frame.vectors[j] for j in inside),
            complete=oi not in incomplete,
            types=frozenset(types),
        ))
    return OrbitReport(b.diagram_set.m, b.diagram_set.n, tuple(orbits))


def verify_equivariant(vectors: Sequence[GeneralizedBasisVector],
                       b: BasisResult, budget: Budget | None = None) -> bool:
    """True iff the vectors form a basis of the connected space that is
    closed (classwise) under every circle relabelling."""
    frame = _Frame(vectors, b, budget)
    perms = _moving_perms(b.diagram_set.m)
    return frame.is_basis() and next(frame.incomplete(perms), None) is None


def equivariantize_m2(b: BasisResult, budget: Budget | None = None
                      ) -> tuple[list[GeneralizedBasisVector], list[int]]:
    """Repair a two-circle connected basis into an equivariant one.

    Returns the new basis vectors and the incomplete-orbit count after each
    round (strictly decreasing, ending in 0).
    """
    if b.diagram_set.m != 2:
        raise ChordBasisError("the repair algorithm is specific to two circles")
    swap = (1, 0)
    frame = _Frame([vector_of(d) for d in b.basis], b, budget)
    bad = list(frame.incomplete([swap]))
    history = [len(bad)]
    while bad:
        bad_indices = {i for i, _, _ in bad}
        # Both repairs below keep a basis, so ``replace`` accepts them.
        for i, image, c in bad:
            coeffs = frame.solve(c)
            # Type I repair (replace b by the fixed point b + sigma(b)) keeps
            # a basis only while the b-coefficient of sigma(b) is not -1:
            # b + sigma(b) = (1 + c_b) b + ... loses its b-component there.
            if coeffs[i] and coeffs[i] != -1:
                frame.replace(i, vector_sum(frame.vectors[i], image))
                break
            witness = next((j for j, coef in enumerate(coeffs)
                            if coef and j != i and j in bad_indices), None)
            if witness is not None:
                # type II: the witness in another incomplete orbit is
                # replaced by the translate itself
                frame.replace(witness, image)
                break
        else:
            # Every incomplete orbit is stuck: sigma(b) = -b + (vectors in
            # complete orbits only).  Then b - sigma(b) is negated by the
            # action, and pairing it with a fixed basis vector x as
            # x +- (b - sigma(b)) gives a swapped pair spanning {x, b}
            # modulo the rest; the stuck orbit disappears.
            i, image, _ = bad[0]
            anti = vector_difference(frame.vectors[i], image)
            fixed = next((j for j in range(len(frame.vectors)) if j not in bad_indices
                          and frame.translate(j, swap)[1] == frame.coords[j]), None)
            if fixed is None:
                raise ChordBasisError(
                    "stuck incomplete orbit and no fixed basis vector to "
                    "pair it with"
                )
            x = frame.vectors[fixed]
            if not (frame.replace(i, vector_sum(x, anti))
                    and frame.replace(fixed, vector_difference(x, anti))):
                raise ChordBasisError("the stuck-orbit move did not keep a basis")
        bad = list(frame.incomplete([swap]))
        if len(bad) >= history[-1]:
            raise ChordBasisError("repair failed to reduce the incomplete count")
        history.append(len(bad))
    return frame.vectors, history


def equivariantize_greedy(b: BasisResult, budget: Budget | None = None
                          ) -> tuple[list[GeneralizedBasisVector], bool, list[int]]:
    """Best-effort repair for any circle count.

    Applies the two-circle moves whenever they keep the set a basis, for at
    most ``GREEDY_MAX_ROUNDS`` rounds; makes no promise of success.  Returns
    (vectors, finished, per-round counts); the vectors are a basis either way.
    """
    perms = _moving_perms(b.diagram_set.m)
    frame = _Frame([vector_of(d) for d in b.basis], b, budget)
    history: list[int] = []
    for _ in range(GREEDY_MAX_ROUNDS):
        bad = list(frame.incomplete(perms))
        history.append(len(bad))
        if not bad:
            return frame.vectors, True, history
        i, image, c = bad[0]
        # the fixed-point move, then the image in place of each other vector
        # it has a coefficient on; the first to keep a basis and shrink wins
        moves = [(i, vector_sum(frame.vectors[i], image))]
        moves += [(j, image) for j, coef in enumerate(frame.solve(c)) if coef and j != i]
        for j, v in moves:
            trial = frame.copy()
            if trial.replace(j, v) and sum(
                    1 for _ in itertools.islice(trial.incomplete(perms), len(bad))) < len(bad):
                frame = trial
                break
        else:
            return frame.vectors, False, history
    return frame.vectors, False, history


def prufer_edges(seq: Sequence[int], m: int) -> tuple[tuple[int, int], ...]:
    """The sorted edge tuple of the labelled tree on vertices 0..m-1 with
    Prufer sequence ``seq``."""
    if m == 1:
        return ()
    if len(seq) != m - 2:
        raise ChordBasisError(f"need a length-{m - 2} sequence for {m} vertices")
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    c = heapq.heappop(leaves)
    edges.append((min(a, c), max(a, c)))
    return tuple(sorted(edges))


def all_labeled_trees(m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The edge tuple of every labelled tree on m vertices, one per Prufer
    sequence, lazily."""
    for seq in itertools.product(range(m), repeat=max(m - 2, 0)):
        yield prufer_edges(seq, m)


def diagram_from_multigraph(edges: Sequence[tuple[int, int]], m: int) -> ChordDiagram:
    """Normal-form diagram whose underlying graph is the given multigraph.

    Edges (loops allowed) are numbered in sorted order; on every circle the
    feet appear sorted by (neighbour circle, edge number), a loop
    contributing two adjacent feet.  Any normal form would do: diagrams
    sharing an underlying tree are equal in the quotient, which is what
    makes per-graph representatives useful.
    """
    ordered = sorted((min(a, b), max(a, b)) for a, b in edges)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for label, (a, c) in enumerate(ordered):
        if a == c:
            incident[a].append((a, label))
            incident[a].append((a, label))
        else:
            incident[a].append((c, label))
            incident[c].append((a, label))
    return canonicalize(StringRep.from_blocks(
        [label for _, label in sorted(ends)] for ends in incident
    ))


def tree_basis(n: int, budget: Budget | None = None) -> list[ChordDiagram]:
    """One normal-form diagram per labelled tree on n+1 circles.

    By the Cayley-Borchardt count there are (n+1)^(n-1) of them, and they
    form an equivariant basis of the connected space with m = n + 1.  The
    candidate budget is charged every tree before the first is built, and
    the time budget is checked once per tree.
    """
    if n < 0:
        raise DiagramError(f"chord count must be nonnegative, got n={n}")
    budget = ensure_budget(budget)
    budget.charge_candidates((n + 1) ** max(n - 1, 0))
    diagrams = []
    for edges in all_labeled_trees(n + 1):
        budget.check_time()
        diagrams.append(diagram_from_multigraph(edges, n + 1))
    return sorted(diagrams)


def underlying_multigraph(d: ChordDiagram) -> tuple[tuple[int, int], ...]:
    """The sorted edge multiset (circle pairs) of a diagram's chords: the
    lowest and highest circle each chord touches."""
    masks = chord_circles(d.rep.feet, circle_owners(d.rep.starts))
    return tuple(sorted(((mask & -mask).bit_length() - 1, mask.bit_length() - 1)
                        for mask in masks))


def graph_form_basis(b: BasisResult) -> list[ChordDiagram]:
    """One normal-form representative per underlying multigraph found in the
    enumerated set.  Meaningful when distinct graphs give independent
    classes and the graph count equals the dimension (the tree case, and the
    three-circle three-chord space); callers verify with
    :func:`verify_equivariant`."""
    graphs = sorted({underlying_multigraph(d) for d in b.diagram_set.diagrams})
    reps = [diagram_from_multigraph(g, b.diagram_set.m) for g in graphs]
    if len(reps) != b.dimension:
        raise ChordBasisError(
            f"graph count {len(reps)} != dimension {b.dimension}; this space "
            "has no per-graph basis"
        )
    return sorted(reps)


def orbit_report_to_text(report: OrbitReport) -> str:
    body_lines = []
    for i, o in enumerate(report.orbits):
        types = ",".join(sorted(o.types)) if o.types else "-"
        members = " ".join(_member_text(v) for v in o.members)
        basis_members = " ".join(_member_text(v) for v in o.basis_members)
        body_lines.append(
            f"orbit {i} size={o.size} complete={int(o.complete)} "
            f"types={types} basis=[{basis_members}] members=[{members}]"
        )
    body = "".join(line + "\n" for line in body_lines)
    return artifact_text(orbits_name(report.m, report.n),
                         f"orbits={len(report.orbits)} incomplete={report.incomplete_count}",
                         body)


def _member_text(v: GeneralizedBasisVector) -> str:
    if len(v.terms) == 1 and v.terms[0][1] == 1:
        return str(v.terms[0][0])
    return "(" + "+".join(f"{coef}*{diag}" for diag, coef in v.terms) + ")"


def equivariant_to_text(vectors: Sequence[GeneralizedBasisVector], m: int, n: int,
                        rounds: Sequence[int]) -> str:
    body = "".join(str(v) + "\n" for v in sorted(vectors, key=str))
    return artifact_text(equivariant_name(m, n), f"vectors={len(vectors)} "
                         f"rounds={','.join(str(r) for r in rounds)}", body)
