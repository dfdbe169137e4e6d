"""The benchmark's four workloads.

Each workload runs a fixed instance set, one call at a time, in one process.
A *plain* pass makes the calls a user makes (the fused ``dim_C`` and
``connected_basis``, or ``chordbasis.cli.main``) with tracing off; its timed
calls give the end-to-end numbers. A *traced* pass makes the same requests
through each module's public stage functions in pipeline order (enumerate ->
relate -> assemble -> eliminate -> express), with a span around every call,
and counts what each stage produced. Every call clears the in-process memos
first, so each pass starts cold.

The instance sets are smaller than the order-5 yardstick of the project's
roadmap: a run must fit in ``--seconds`` with several passes, and the full
n = 5 row alone takes about 46 s on a 2-core x86 machine.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from chordbasis import cli
from chordbasis import symmetry as S
from chordbasis.basis import (
    REFERENCE_C_DIMS,
    BasisResult,
    basis_to_text,
    clear_memo,
    connected_basis,
    dim_A,
    dim_C,
)
from chordbasis.budget import Budget
from chordbasis.cache import (
    basis_name,
    diagrams_name,
    equivariant_name,
    orbits_name,
    relations_name,
)
from chordbasis.enumeration import enumerate_all, enumerate_connected
from chordbasis.exactla import assemble, express_pivots, pivot_columns, rref
from chordbasis.relations import generate_relations, relations_to_text

from calibrate import Calibrator
from checks import Checker, canonical_string, expected_express_line, sha256
from spans import Tracer

clock = time.perf_counter

# Values of the dim_A component formula over REFERENCE_C_DIMS; the published
# A-table disagrees at all four cells, so it is never used as the check.
DIRECT_A = {(4, 3): 270, (5, 3): 770, (6, 3): 1918, (4, 4): 1063}
ROW_CELLS = [(m, 4) for m in range(1, 6)] + [(1, 5), (2, 5)]
# the cacheable commands; the cold pass adds EXPRESS_COUNT express commands
CLI_CACHED = [
    ["enumerate", "4", "4", "--connected"],
    ["basis", "2", "4"],
    ["basis", "3", "4"],
    ["orbits", "3", "4"],
    ["equivariant", "2", "4"],
    ["equivariant", "3", "3"],
]
EXPRESS_COUNT = 3
WARM_REPEATS = 40


def _key(file_name: str) -> str:
    """Reference-digest key of an artifact: its cache file name without
    ``.txt``; relation files get ``-conn`` or ``-all`` as diagram files do."""
    return file_name.removesuffix(".txt")


@dataclass
class PassResult:
    """One pass: each timed call in call order as (kind, wall seconds),
    plus the counts of a traced pass."""

    calls: list[tuple[str, float]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, wall: float) -> None:
        self.calls.append((kind, wall))

    def time(self, kind: str) -> float:
        return sum(w for k, w, _ in self.calls if k == kind)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Staged:
    """What the staged pipeline produced, kept for counting after the clock
    has stopped."""

    budget: Budget
    ds: object
    rows: list
    mat: object
    pivots: tuple
    rref: object = None
    basis: BasisResult | None = None


class Workload:
    name = ""

    def __init__(self, seed: int, checker: Checker, workdir: Path):
        self.seed = seed
        self.ck = checker
        self.workdir = workdir
        self.fused: dict[str, object] = {}
        self.calibrator: Calibrator | None = None

    def prepare(self) -> None:
        """Input generation and memo clearing; timed as set-up."""
        self.rng = random.Random(self.seed)
        clear_memo()

    def plain_pass(self) -> PassResult:
        raise NotImplementedError

    def traced_pass(self, tr: Tracer) -> PassResult:
        raise NotImplementedError

    def timed(self, res: PassResult, kind: str, fn, tr: Tracer | None = None,
              span: str = "bench.op"):
        """Call ``fn`` and record its time under ``kind``; with a tracer,
        inside a span, otherwise after refreshing the calibrator."""
        if tr is not None:
            with tr.span(span):
                t0 = clock()
                out = fn()
                res.add(kind, clock() - t0)
            return out
        if self.calibrator:
            self.calibrator.refresh()
        t0 = clock()
        out = fn()
        res.add(kind, clock() - t0)
        return out

    # -- staged pipeline, shared by the traced passes -----------------------

    @staticmethod
    def staged(tr: Tracer, m: int, n: int, connected: bool, full: bool) -> Staged:
        """enumerate -> relate -> assemble -> eliminate (-> express), each in
        its own span."""
        budget = Budget()
        if connected:
            with tr.span("enumeration.enumerate_connected"):
                ds = enumerate_connected(m, n, budget=budget)
        else:
            with tr.span("enumeration.enumerate_all"):
                ds = enumerate_all(m, n, budget=budget)
        with tr.span("relations.generate_relations"):
            rows = generate_relations(ds)
        with tr.span("exactla.assemble"):
            mat = assemble(rows, len(ds))
        if not full:
            with tr.span("exactla.pivot_columns"):
                pivots = pivot_columns(mat)
            return Staged(budget, ds, rows, mat, pivots)
        with tr.span("exactla.rref"):
            result = rref(mat)
        with tr.span("exactla.express_pivots"):
            pivot_set = set(result.pivots)
            basis = tuple(d for i, d in enumerate(ds.diagrams) if i not in pivot_set)
            expressions = {
                ds.diagrams[p]: tuple((ds.diagrams[c], coef) for c, coef in expr)
                for p, expr in express_pivots(result).items()
            }
        return Staged(budget, ds, rows, mat, result.pivots, result,
                      BasisResult(ds, result.pivots, basis, expressions))

    @staticmethod
    def count_staged(res: PassResult, st: Staged) -> None:
        """Add the stage counts of ``st`` to ``res``; runs off the clock."""
        res.count("enumeration.candidates", st.budget.candidates_used)
        res.count("enumeration.diagrams", len(st.ds))
        res.count("relations.rows", len(st.rows))
        res.count("relations.zero_rows", sum(1 for r in st.rows if r.is_zero()))
        res.count("relations.nnz", sum(len(r.coeffs) for r in st.rows))
        distinct = set()
        for r in st.rows:
            if r.coeffs:  # a row and its negative span the same relation
                sign = 1 if r.coeffs[0][1] > 0 else -1
                distinct.add(tuple((c, sign * v) for c, v in r.coeffs))
        nonzero = st.mat.nrows
        res.count("relations.duplicate_rows", nonzero - len(distinct))
        res.count("relations.distinct_rows", len(distinct))
        res.count("exactla.rank", len(st.pivots))
        res.count("exactla.nonzero_rows", nonzero)
        if st.rref is not None:
            bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                        for row in st.rref.matrix.rows for _, v in row), default=0)
            res.counts["exactla.max_coeff_bits"] = max(
                res.counts.get("exactla.max_coeff_bits", 0), bits)


class Rows(Workload):
    """dim_C over the n = 4 row and the n = 5 cells m = 1, 2."""

    name = "rows"

    def prepare(self) -> None:
        super().prepare()
        self.cells = ROW_CELLS[:]
        self.rng.shuffle(self.cells)

    def plain_pass(self) -> PassResult:
        res = PassResult()
        for m, n in self.cells:
            with self.ck.op(f"dim_C({m},{n})"):
                clear_memo()
                dim = self.timed(res, "basis.dim_C", lambda: dim_C(m, n))
                self.ck.expect("dimension", dim, REFERENCE_C_DIMS[(m, n)])
                self.fused[f"dim_C({m},{n})"] = dim
        return res

    def traced_pass(self, tr: Tracer) -> PassResult:
        res = PassResult()
        for m, n in self.cells:
            with self.ck.op(f"staged dim_C({m},{n})"):
                clear_memo()
                st = self.timed(res, "basis.staged",
                                lambda: self.staged(tr, m, n, connected=True, full=False),
                                tr)
                self.count_staged(res, st)
                dim = len(st.ds) - len(st.pivots)
                self.ck.expect("dimension", dim, REFERENCE_C_DIMS[(m, n)])
                self.ck.expect("staged vs fused", dim, self.fused.get(f"dim_C({m},{n})"))
                self.ck.digest(_key(diagrams_name(m, n, True)), st.ds.to_text())
                self.ck.digest(_key(relations_name(m, n)) + "-conn",
                               relations_to_text(st.ds, st.rows))
        return res


class DirectA(Workload):
    """Exact rank over all diagrams at the cells where the published A-table
    is wrong: enumerate_all -> generate_relations -> assemble -> pivot_columns."""

    name = "direct-A"

    def prepare(self) -> None:
        super().prepare()
        self.cells = sorted(DIRECT_A)
        self.rng.shuffle(self.cells)

    def _check(self, m: int, n: int, out: list) -> None:
        """Check ``out = [ds, rows, rank]``, emptying it as it goes, so that
        the rows are freed before the diagram text is built."""
        ds, rows, rank = out
        out.clear()
        self.ck.expect("dimension", len(ds) - rank, DIRECT_A[(m, n)])
        self.ck.digest(_key(relations_name(m, n)) + "-all", relations_to_text(ds, rows))
        del rows
        self.ck.digest(_key(diagrams_name(m, n, False)), ds.to_text())

    def plain_pass(self) -> PassResult:
        res = PassResult()

        def direct(m, n):
            ds = enumerate_all(m, n)
            rows = generate_relations(ds)
            return [ds, rows, len(pivot_columns(assemble(rows, len(ds))))]

        for m, n in self.cells:
            with self.ck.op(f"direct A({m},{n})"):
                clear_memo()
                self._check(m, n, self.timed(res, "direct", lambda: direct(m, n)))
        return res

    def traced_pass(self, tr: Tracer) -> PassResult:
        res = PassResult()
        for m, n in self.cells:
            with self.ck.op(f"staged direct A({m},{n})"):
                clear_memo()
                st = self.timed(res, "direct",
                                lambda: self.staged(tr, m, n, connected=False, full=False),
                                tr)
                self.count_staged(res, st)
                out = [st.ds, st.rows, len(st.pivots)]
                del st
                self._check(m, n, out)
            with self.ck.op(f"dim_A({m},{n})"):
                with tr.span("basis.dim_A"):
                    formula = dim_A(m, n, REFERENCE_C_DIMS)
                self.ck.expect("formula", formula, DIRECT_A[(m, n)])
        return res


class Symmetry(Workload):
    """connected_basis(3,4) then orbit_report; connected_basis(2,5) then
    equivariantize_m2 and verify_equivariant."""

    name = "symmetry"

    def prepare(self) -> None:
        super().prepare()
        self.blocks = [(3, 4), (2, 5)]
        self.rng.shuffle(self.blocks)

    def _symmetry_ops(self, res: PassResult, m: int, n: int, b,
                      tr: Tracer | None) -> None:
        """The symmetry calls on basis ``b``, each timed, and traced with
        ``tr``."""

        def run(kind, fn):
            return self.timed(res, kind, fn, tr, span=kind)

        if m == 3:
            with self.ck.op(f"orbit_report({m},{n})"):
                report = run("symmetry.orbit_report", lambda: S.orbit_report(b))
                res.counts["symmetry.orbits"] = len(report.orbits)
                res.counts["symmetry.incomplete_orbits"] = report.incomplete_count
                self.ck.digest(_key(orbits_name(m, n)), S.orbit_report_to_text(report))
            return
        vectors = None
        with self.ck.op(f"equivariantize_m2({m},{n})"):
            vectors, rounds = run("symmetry.equivariantize", lambda: S.equivariantize_m2(b))
            res.counts["symmetry.repair_rounds"] = len(rounds)
            self.ck.digest(_key(equivariant_name(m, n)),
                           S.equivariant_to_text(vectors, m, n, rounds))
        with self.ck.op(f"verify_equivariant({m},{n})"):
            ok = run("symmetry.verify", lambda: S.verify_equivariant(vectors, b))
            self.ck.expect("verify_equivariant", ok, True)

    def plain_pass(self) -> PassResult:
        res = PassResult()
        for m, n in self.blocks:
            b = None
            with self.ck.op(f"connected_basis({m},{n})"):
                clear_memo()
                b = self.timed(res, "basis.connected_basis", lambda: connected_basis(m, n))
                digest = sha256(basis_to_text(b))
                self.ck.digest_of(_key(basis_name(m, n)), digest)
                self.fused[basis_name(m, n)] = digest
            self._symmetry_ops(res, m, n, b, None)
        return res

    def traced_pass(self, tr: Tracer) -> PassResult:
        res = PassResult()
        for m, n in self.blocks:
            b = None
            with self.ck.op(f"staged connected_basis({m},{n})"):
                clear_memo()
                st = self.timed(res, "basis.staged",
                                lambda: self.staged(tr, m, n, connected=True, full=True),
                                tr)
                self.count_staged(res, st)
                b = st.basis
                del st
                digest = sha256(basis_to_text(b))
                self.ck.digest_of(_key(basis_name(m, n)), digest)
                self.ck.expect("staged vs fused", digest, self.fused.get(basis_name(m, n)))
            self._symmetry_ops(res, m, n, b, tr)
        return res


def _scrambled_connected(rng: random.Random, m: int, n: int) -> str:
    """A random connected (m, n) diagram string that is not in canonical form."""
    while True:
        feet = [c for c in range(n) for _ in (0, 1)]
        rng.shuffle(feet)
        cuts = [0] + sorted(rng.sample(range(1, 2 * n), m - 1)) + [2 * n]
        blocks = [feet[a:b] for a, b in zip(cuts, cuts[1:])]
        circles_of: dict[int, set[int]] = {}
        for i, block in enumerate(blocks):
            for c in block:
                circles_of.setdefault(c, set()).add(i)
        reached = {0}
        grown = True
        while grown:
            grown = False
            for circles in circles_of.values():
                if circles & reached and not circles <= reached:
                    reached |= circles
                    grown = True
        text = "|".join("".join(str(c) for c in block) for block in blocks)
        if len(reached) == m and canonical_string(text) != text:
            return text


class CliCache(Workload):
    """chordbasis.cli.main in process at --threads 2 on a fresh cache
    directory per pass: a cold pass, then the cacheable commands again."""

    name = "cli-cache"

    def prepare(self) -> None:
        super().prepare()
        self.express = [_scrambled_connected(self.rng, 3, 4) for _ in range(EXPRESS_COUNT)]
        self.warm = [argv for argv in CLI_CACHED for _ in range(WARM_REPEATS)]
        self.rng.shuffle(self.warm)
        self.cache = self.workdir / "cache"
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir()

    @staticmethod
    def _artifact(argv: list[str]) -> str:
        m, n = int(argv[1]), int(argv[2])
        if argv[0] == "enumerate":
            return diagrams_name(m, n, True)
        return {"basis": basis_name, "orbits": orbits_name,
                "equivariant": equivariant_name}[argv[0]](m, n)

    def _snapshot(self) -> dict[str, tuple[int, int]]:
        return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in self.cache.iterdir()}

    def _cli(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["--cache", str(self.cache), "--threads", "2", *argv])
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def _check_command(self, argv: list[str], stdout: str) -> None:
        self.ck.digest("stdout " + " ".join(argv), stdout)
        name = self._artifact(argv)
        self.ck.digest(_key(name), (self.cache / name).read_text(encoding="utf-8"))
        if argv[0] == "basis":
            rel = relations_name(int(argv[1]), int(argv[2]))
            self.ck.digest(_key(rel) + "-conn", (self.cache / rel).read_text(encoding="utf-8"))

    def _pass(self, tr: Tracer | None) -> PassResult:
        res = PassResult()
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir()
        hits = misses = bytes_read = bytes_written = 0

        def command(argv: list[str], phase: str) -> str:
            nonlocal hits, misses, bytes_read, bytes_written
            clear_memo()
            if tr is None:
                return self.timed(res, "cli." + phase, lambda: self._cli(argv))
            before = self._snapshot()
            stdout = self.timed(res, "cli." + phase, lambda: self._cli(argv), tr,
                                span="cli." + argv[0])
            after = self._snapshot()
            if argv[0] != "express":
                changed = [k for k, v in after.items() if before.get(k) != v]
                bytes_written += sum(after[k][0] for k in changed)
                name = self._artifact(argv)
                if name in before and not changed:
                    hits += 1
                    bytes_read += before[name][0]
                else:
                    misses += 1
            return stdout

        for argv in CLI_CACHED:
            with self.ck.op(" ".join(argv)):
                self._check_command(argv, command(argv, "cold"))
        for text in self.express:
            with self.ck.op(f"express {text}"):
                line = command(["express", text], "cold").strip()
                basis_text = (self.cache / basis_name(3, 4)).read_text(encoding="utf-8")
                self.ck.expect("express", line,
                               expected_express_line(basis_text, canonical_string(text)))
        for argv in self.warm:
            with self.ck.op("warm " + " ".join(argv)):
                self._check_command(argv, command(argv, "warm"))
        if tr is not None:
            res.counts.update({"cache.hits": hits, "cache.misses": misses,
                               "cache.bytes_read": bytes_read,
                               "cache.bytes_written": bytes_written})
        return res

    def plain_pass(self) -> PassResult:
        return self._pass(None)

    def traced_pass(self, tr: Tracer) -> PassResult:
        return self._pass(tr)


WORKLOADS = {w.name: w for w in (Rows, DirectA, Symmetry, CliCache)}
