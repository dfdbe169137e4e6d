"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
budget exceeded.  Flags beat the optional plain-text config file, which
beats built-in defaults.  All generated files are UTF-8 with LF line
endings and carry a content digest in their header (``cache.artifact_text``);
the on-disk cache (``--cache`` / ``CHORDBASIS_CACHE``) makes repeated runs
byte-identical.  Every artifact file, ``verify``'s included, is a hit or a
miss of its own ``_cached_text`` call: a cached file is recomputed when its
digest does not match its body, when its header does not start as its
writer starts the file of that name (``cache.header_prefix``), or, for a
basis file, when ``basis.basis_sections`` refuses it; ``basis``, ``express``
and ``render --basis-file`` read a basis file only through it.  Every
assembled matrix keeps each row once (``exactla.assemble``).

``enumerate``, ``basis``, ``orbits``, ``equivariant`` and ``express`` are
cached commands.  ``express`` prints a line of the basis file: its cache
miss computes and writes the basis file alone (``basis`` and ``verify`` also
make the relations file) and charges the budget only then.  A diagram
outside the connected set is refused before the cache is touched.  Every
quotient comes from ``basis.quotient``, paid for once by the one budget.
Each stage runs once per command: ``basis`` and ``verify`` hand the
quotient a list for the full four-term rows, so a quotient they build
relates once for both files, a relations file missing beside a cached
basis file is related again without an elimination, and
``orbits`` and ``equivariant`` rebuild
their basis from an intact cached basis file (``basis.basis_from_text``)
instead of building a quotient; a miss there writes no basis file.

``main`` builds the parser once per process and may be called repeatedly in
process; the parser binds each ``cmd_*`` function when it is built, so a
caller that patches a command patches the module globals it reads, not
``cmd_*``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .basis import (
    BasisResult,
    basis_from_text,
    basis_sections,
    basis_to_text,
    connected_basis,
    connected_set,
    dim_table_A,
    dim_table_C,
    format_dimension_table,
    full_basis,
    quotient,
)
from .budget import (
    Budget,
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_MATRIX_CELLS,
)
from .cache import (
    DiskCache,
    artifact_intact,
    basis_name,
    diagrams_name,
    equivariant_name,
    header_prefix,
    orbits_name,
    relations_name,
)
from .diagrams import diagram, is_connected
from .enumeration import DiagramSet, enumerate_all, enumerate_connected
from .errors import BudgetExceededError, ChordBasisError, DiagramError
from .exactla import Relation
from .relations import generate_relations, relations_to_text
from .render import render_svg
from .symmetry import (
    equivariant_to_text,
    equivariantize_greedy,
    equivariantize_m2,
    graph_form_basis,
    is_basis,
    orbit_report,
    orbit_report_to_text,
    tree_basis,
    vector_of,
    verify_equivariant,
)
from .verify import run_profile

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CONFIG_KEYS = ("threads", "cache", "max-candidates", "max-matrix-cells", "time-budget")


def _read_user_text(path: str) -> str:
    """A file named on the command line, as UTF-8 text."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DiagramError(f"{path} is not UTF-8 text: {exc}") from None


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in _read_user_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DiagramError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise DiagramError(f"unknown config key: {key!r}")
        out[key] = value
    return out


class Settings:
    def __init__(self, args: argparse.Namespace):
        config = _read_config(args.config) if args.config else {}

        def pick(flag_value, key: str, default, cast):
            if flag_value is not None:
                return flag_value
            if key in config:
                try:
                    return cast(config[key])
                except ValueError:
                    raise DiagramError(f"config value for {key!r} is not a "
                                       f"valid {cast.__name__}: {config[key]!r}") from None
            return default

        pick(args.threads, "threads", None, int)  # checked, has no effect
        self.cache_root = pick(args.cache, "cache", None, str)
        max_candidates = pick(args.max_candidates, "max-candidates",
                              DEFAULT_MAX_CANDIDATES, int)
        max_matrix_cells = pick(args.max_matrix_cells, "max-matrix-cells",
                                DEFAULT_MAX_MATRIX_CELLS, int)
        time_budget = pick(args.time_budget, "time-budget", 0.0, float)
        # One budget for the whole invocation, so a time cap is global.
        self.budget = Budget(max_candidates=max_candidates,
                             max_matrix_cells=max_matrix_cells,
                             time_budget=time_budget)

    def cache(self) -> DiskCache:
        return DiskCache(self.cache_root)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _cache_hit(cache: DiskCache, name: str, read):
    """The cached file ``name`` and what ``read`` makes of it, when its
    header starts as its writer starts that file and ``read`` accepts it
    (``read`` returns a false value or raises DiagramError on a file that
    is not intact); else None, after a warning if the file is there."""
    hit = cache.get_text(name)
    if hit is not None:
        try:
            if hit.startswith(header_prefix(name)) and (parsed := read(hit)):
                return hit, parsed
        except DiagramError:
            pass
        print(f"warning: {cache.root / name} does not match its header; "
              "recomputing it", file=sys.stderr)
    return None


def _cached_text(settings: Settings, name: str, compute, read=artifact_intact):
    """The artifact file ``name`` and what ``read`` makes of it: the cache
    hit (:func:`_cache_hit`), else the text ``compute`` returns, written to
    the cache if the time budget still holds."""
    cache = settings.cache()
    hit = _cache_hit(cache, name, read)
    if hit is not None:
        return hit
    text = compute()
    settings.budget.check_time()
    cache.put_text(name, text)
    return text, read(text)


def cmd_enumerate(args, settings: Settings) -> int:
    name = diagrams_name(args.m, args.n, args.connected)

    def compute() -> str:
        fn = enumerate_connected if args.connected else enumerate_all
        ds = fn(args.m, args.n, budget=settings.budget)
        return ds.to_text()

    _emit(_cached_text(settings, name, compute)[0], args.out)
    return EXIT_OK


def _basis_text(settings: Settings, m: int, n: int,
                rows: list[Relation] | None = None) -> tuple[str, list[str], list[str]]:
    """The basis file of the connected (m, n) space, from the cache or
    computed, with its basis lines and pivot-expression lines, from one
    ``basis_sections`` call; ``rows`` goes to ``basis.quotient``."""
    text, (basis, pivots) = _cached_text(settings, basis_name(m, n), lambda: basis_to_text(
        quotient(m, n, budget=settings.budget, rows=rows).basis(settings.budget)),
        basis_sections)
    return text, basis, pivots


def _basis_files(settings: Settings, m: int, n: int) -> tuple[str, list[str], list[str]]:
    """The basis file of the connected (m, n) space, as :func:`_basis_text`
    gives it, with its input, the relations file, cached beside it.  A
    quotient built here relates the full list once for both files.  A
    relations miss without such a quotient (a basis hit, or a memoized
    quotient, which kept no rows) relates the set again and eliminates
    nothing (``basis.connected_set``)."""
    rows: list[Relation] = []
    files = _basis_text(settings, m, n, rows)

    def relations() -> str:
        ds = connected_set(m, n, budget=settings.budget)
        return relations_to_text(ds, rows or generate_relations(ds, budget=settings.budget))

    _cached_text(settings, relations_name(m, n), relations)
    return files


def _cached_basis(settings: Settings, m: int, n: int) -> BasisResult:
    """The connected (m, n) basis, read from the cached basis file when it
    is intact (``basis.basis_from_text``), else computed; writes no file."""
    hit = _cache_hit(settings.cache(), basis_name(m, n), basis_from_text)
    return hit[1] if hit else connected_basis(m, n, budget=settings.budget)


def cmd_basis(args, settings: Settings) -> int:
    text, basis, _ = _basis_files(settings, args.m, args.n)
    if args.out:
        _emit(text, args.out)
    print(len(basis))
    return EXIT_OK


def cmd_table(args, settings: Settings) -> int:
    bundled = {"live": (), "auto": (5,), "bundled": range(1, args.nmax + 1)}[args.c_source]
    c_table = dim_table_C(args.nmax, args.mmax, budget=settings.budget,
                          bundled_n=bundled)
    table = c_table if args.family == "C" else dim_table_A(args.nmax, args.mmax, c_table)
    sys.stdout.write(format_dimension_table(table, args.family, csv=args.csv))
    return EXIT_OK


def cmd_verify(args, settings: Settings) -> int:
    # Materialize the artifact files for the profile scope first; the
    # determinism acceptance run compares these across processes.
    n_scope = 3 if args.profile == "fast" else 4
    for n in range(1, n_scope + 1):
        for m in range(1, n + 2):
            _basis_files(settings, m, n)
            _cached_text(settings, diagrams_name(m, n, True),
                         lambda: quotient(m, n, budget=settings.budget).diagram_set.to_text())
    results = run_profile(args.profile, budget=settings.budget)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} [{r.seconds:.1f}s] {r.detail}")
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"(profile={args.profile})")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_orbits(args, settings: Settings) -> int:
    def compute() -> str:
        b = _cached_basis(settings, args.m, args.n)
        return orbit_report_to_text(orbit_report(b, budget=settings.budget))

    text, _ = _cached_text(settings, orbits_name(args.m, args.n), compute)
    _emit(text, args.out)
    return EXIT_OK


def cmd_equivariant(args, settings: Settings) -> int:
    def compute() -> str:
        if args.m == args.n + 1:
            # labelled-tree normal forms; equivariant by construction, and
            # the count of distinct diagrams is pinned to the tree count
            # without the (possibly large) relation pipeline
            trees = tree_basis(args.n, settings.budget)
            if len(set(trees)) != (args.n + 1) ** max(args.n - 1, 0):
                raise ChordBasisError("tree count mismatch")
            vectors = [vector_of(d) for d in trees]
            return equivariant_to_text(vectors, args.m, args.n, [0])
        b = _cached_basis(settings, args.m, args.n)
        finished = True
        if args.m == 2:
            vectors, rounds = equivariantize_m2(b, settings.budget)
        elif (args.m, args.n) == (3, 3):
            vectors = [vector_of(d) for d in graph_form_basis(b)]
            rounds = [0]
        else:
            vectors, finished, rounds = equivariantize_greedy(b, settings.budget)
        # An unfinished greedy run is a reported outcome, not an error: its
        # vectors need only form a basis, and rounds= ends in the count left.
        if not (verify_equivariant(vectors, b, settings.budget) if finished
                else is_basis(vectors, b, settings.budget)):
            raise ChordBasisError(
                "produced vectors failed the equivariance verification"
            )
        if not finished:
            print(f"greedy repair stopped with {rounds[-1]} incomplete "
                  "orbits remaining; emitting the partial basis", file=sys.stderr)
        return equivariant_to_text(vectors, args.m, args.n, rounds)

    text, _ = _cached_text(settings, equivariant_name(args.m, args.n), compute)
    _emit(text, args.out)
    return EXIT_OK


def cmd_tree_basis(args, settings: Settings) -> int:
    diagrams = DiagramSet(args.n + 1, args.n, "connected",
                          tuple(tree_basis(args.n, settings.budget)))
    _emit(diagrams.to_text(), args.out)
    return EXIT_OK


def cmd_express(args, settings: Settings) -> int:
    # The basis file holds every answer: a basis diagram is itself, and a
    # pivot diagram's line is its basis.express expansion (terms in column
    # order, which is sorted diagram order, no zero coefficient, "0" when
    # the expansion is empty).
    d = diagram(args.diagram)
    if not is_connected(d):
        raise DiagramError(f"{d} is not in the enumerated set")
    _, basis, expressions = _basis_text(settings, d.m, d.n)
    if str(d) in basis:
        print(f"{d} = 1*{d}")
        return EXIT_OK
    prefix = f"{d} = "
    for line in expressions:
        if line.startswith(prefix):
            print(line)
            return EXIT_OK
    raise DiagramError(f"{d} is not in the enumerated set")


def cmd_render(args, settings: Settings) -> int:
    texts: list[str]
    if args.basis_file:
        texts = basis_sections(_read_user_text(args.basis_file), args.basis_file)[0]
    else:
        if args.diagram is None:
            raise DiagramError("render needs a diagram string or --basis-file")
        texts = [args.diagram]
    if args.svg:
        outdir = Path(args.svg)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(texts):
            d = diagram(text)
            fname = f"{i:04d}_{str(d).replace('|', '-')}.svg"
            (outdir / fname).write_text(render_svg(d), encoding="utf-8", newline="\n")
        print(f"wrote {len(texts)} file(s) to {outdir}")
    else:
        for text in texts:
            print(diagram(text))
    return EXIT_OK


def cmd_full_basis(args, settings: Settings) -> int:
    diagrams = DiagramSet(args.m, args.n, "all",
                          tuple(full_basis(args.m, args.n, settings.budget)))
    _emit(diagrams.to_text(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chordbasis",
        description="Bases of chord-diagram spaces on labelled circles "
                    "modulo the four-term relation.",
    )
    p.add_argument("--version", action="version", version=f"chordbasis {__version__}")
    p.add_argument("--config", help="plain-text config file (key = value)")
    p.add_argument("--cache", help="cache directory (default: CHORDBASIS_CACHE "
                                   "or ~/.cache/chordbasis)")
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--max-candidates", type=int,
                   help=f"enumeration budget (default {DEFAULT_MAX_CANDIDATES})")
    p.add_argument("--max-matrix-cells", type=int,
                   help=f"matrix budget (default {DEFAULT_MAX_MATRIX_CELLS})")
    p.add_argument("--time-budget", type=float,
                   help="wall-clock budget in seconds (default unlimited)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="write the diagram-set file")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--connected", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("basis", help="compute a connected basis; print its dimension")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("table", help="print a dimension table")
    sp.add_argument("--family", choices=("C", "A"), required=True)
    sp.add_argument("--nmax", type=int, default=4)
    sp.add_argument("--mmax", type=int, default=6)
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--c-source", choices=("auto", "live", "bundled"),
                    default="auto",
                    help="connected values: live, bundled, or live with the "
                         "published order-5 row bundled (auto)")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--profile", choices=("fast", "full"), default="fast")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("orbits", help="orbit report for a connected basis")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("equivariant", help="equivariant basis (two circles, "
                                            "tree case, or greedy attempt)")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_equivariant)

    sp = sub.add_parser("tree-basis", help="normal-form tree basis for m = n + 1")
    sp.add_argument("n", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_tree_basis)

    sp = sub.add_parser("express", help="expand a diagram over its connected basis")
    sp.add_argument("diagram")
    sp.set_defaults(func=cmd_express)

    sp = sub.add_parser("render", help="render diagrams as text or SVG")
    sp.add_argument("diagram", nargs="?")
    sp.add_argument("--basis-file")
    sp.add_argument("--svg", help="output directory for SVG files")
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("full-basis", help="basis of the full (not necessarily "
                                           "connected) space")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_full_basis)

    return p


# Built on the first ``main`` call, not at import; ``parse_args`` fills a
# fresh Namespace on every call and leaves the parser as it was.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        settings = Settings(args)
        return args.func(args, settings)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DiagramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChordBasisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
