"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
budget exceeded.  Flags beat the optional plain-text config file, which
beats built-in defaults.  All generated files are UTF-8 with LF line
endings and carry a content digest in their header; the on-disk cache
(``--cache`` / ``CHORDBASIS_CACHE``) makes repeated runs byte-identical,
and a cached file whose header does not match its body is recomputed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .basis import (
    basis_to_text,
    connected_basis,
    connected_bases_for_full,
    dim_table_A,
    dim_table_C,
    express,
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
    orbits_name,
    relations_name,
)
from .diagrams import diagram
from .enumeration import DiagramSet, enumerate_all, enumerate_connected
from .errors import BudgetExceededError, ChordBasisError, DiagramError
from .relations import generate_relations, relations_to_text
from .render import render, render_svg
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


def _cached_text(settings: Settings, name: str, compute) -> str:
    cache = settings.cache()
    hit = cache.get_text(name)
    if hit is not None:
        if artifact_intact(hit):
            return hit
        print(f"warning: {cache.root / name} does not match its header; "
              "recomputing it", file=sys.stderr)
    text = compute()
    cache.put_text(name, text)
    return text


def cmd_enumerate(args, settings: Settings) -> int:
    name = diagrams_name(args.m, args.n, args.connected)

    def compute() -> str:
        fn = enumerate_connected if args.connected else enumerate_all
        ds = fn(args.m, args.n, budget=settings.budget)
        return ds.to_text()

    _emit(_cached_text(settings, name, compute), args.out)
    return EXIT_OK


def _relations_text(ds: DiagramSet, settings: Settings) -> str:
    """The relations file of ``ds``: every four-term row, both families."""
    return relations_to_text(ds, generate_relations(ds, budget=settings.budget))


def cmd_basis(args, settings: Settings) -> int:
    def compute() -> str:
        q = quotient(args.m, args.n, budget=settings.budget)
        # persist the relation rows too, so the basis file's inputs are on
        # disk; the quotient keeps none, so the full list is built for it
        _cached_text(settings, relations_name(args.m, args.n),
                     lambda: _relations_text(q.diagram_set, settings))
        return basis_to_text(q.basis)

    text = _cached_text(settings, basis_name(args.m, args.n), compute)
    if args.out:
        _emit(text, args.out)
    fields = dict(item.split("=", 1) for item in text.split("\n", 1)[0].split()[1:])
    print(fields["dim"])
    return EXIT_OK


def cmd_table(args, settings: Settings) -> int:
    bundled = {"live": (), "auto": (5,), "bundled": range(1, args.nmax + 1)}[args.c_source]
    c_table = dim_table_C(args.nmax, args.mmax, budget=settings.budget,
                          bundled_n=bundled)
    if args.family == "C":
        table = c_table
    else:
        table = dim_table_A(args.nmax, args.mmax, c_table)
    sys.stdout.write(format_dimension_table(table, csv=args.csv))
    return EXIT_OK


def cmd_verify(args, settings: Settings) -> int:
    # Materialize the artifact files for the profile scope first; the
    # determinism acceptance run compares these across processes.
    cache = settings.cache()
    n_scope = 3 if args.profile == "fast" else 4
    for n in range(1, n_scope + 1):
        for m in range(1, n + 2):
            q = quotient(m, n, budget=settings.budget)
            cache.put_text(diagrams_name(m, n, True), q.diagram_set.to_text())
            cache.put_text(relations_name(m, n),
                           _relations_text(q.diagram_set, settings))
            cache.put_text(basis_name(m, n), basis_to_text(q.basis))
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
        b = connected_basis(args.m, args.n, budget=settings.budget)
        return orbit_report_to_text(orbit_report(b, budget=settings.budget))

    text = _cached_text(settings, orbits_name(args.m, args.n), compute)
    _emit(text, args.out)
    return EXIT_OK


def cmd_equivariant(args, settings: Settings) -> int:
    def compute() -> str:
        if args.m == args.n + 1:
            # labelled-tree normal forms; equivariant by construction, and
            # the count is pinned to the tree count without the (possibly
            # large) relation pipeline
            vectors = [vector_of(d) for d in tree_basis(args.n, settings.budget)]
            if len(vectors) != (args.n + 1) ** max(args.n - 1, 0):
                raise ChordBasisError("tree count mismatch")
            return equivariant_to_text(vectors, args.m, args.n, [0])
        b = connected_basis(args.m, args.n, budget=settings.budget)
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
                else is_basis(vectors, b)):
            raise ChordBasisError(
                "produced vectors failed the equivariance verification"
            )
        if not finished:
            print(f"greedy repair stopped with {rounds[-1]} incomplete "
                  "orbits remaining; emitting the partial basis", file=sys.stderr)
        return equivariant_to_text(vectors, args.m, args.n, rounds)

    text = _cached_text(settings, equivariant_name(args.m, args.n), compute)
    _emit(text, args.out)
    return EXIT_OK


def cmd_tree_basis(args, settings: Settings) -> int:
    diagrams = DiagramSet(args.n + 1, args.n, True, tuple(tree_basis(args.n, settings.budget)))
    _emit(diagrams.to_text(), args.out)
    return EXIT_OK


def cmd_express(args, settings: Settings) -> int:
    d = diagram(args.diagram)
    b = connected_basis(d.m, d.n, budget=settings.budget)
    combo = express(d, b)
    terms = " + ".join(
        f"{coef}*{diag}" for diag, coef in sorted(combo.items(), key=lambda t: t[0])
        if coef
    )
    print(f"{d} = {terms if terms else '0'}")
    return EXIT_OK


def cmd_render(args, settings: Settings) -> int:
    texts: list[str]
    if args.basis_file:
        text = _read_user_text(args.basis_file)
        if text.split(maxsplit=1)[:1] != ["basis"] or not artifact_intact(text):
            raise DiagramError(f"{args.basis_file} is not an intact basis file")
        lines = text.splitlines()
        texts = []
        for line in lines[1:]:
            if line == "pivot-expressions":
                break
            if line:
                texts.append(line)
    else:
        if not args.diagram:
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
            print(render(diagram(text), "text"))
    return EXIT_OK


def cmd_full_basis(args, settings: Settings) -> int:
    bases = connected_bases_for_full(args.m, args.n, budget=settings.budget)
    diagrams = DiagramSet(args.m, args.n, False, tuple(full_basis(args.m, args.n, bases)))
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
