"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rows --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The run repeats the workload's instance set in passes
until ``--seconds`` would be exceeded (at least one pass), checks every
output, and prints each metric by name with its unit. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. End-to-end times
are rescaled by the speed of the machine at the moment (see
``calibrate.py``). A traced run alternates plain and traced passes and
writes its spans to ``perfbench/out/spans-<workload>-seed<seed>.jsonl``.
The exit code is 1 when an op failed, 2 when the run could not start.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # before any other import: set-up begins here

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
# modules dropped from sys.modules before a repeated set-up, so that it
# imports the package afresh
OWN_MODULES = ("workloads", "checks", "spans", "calibrate")

# per-layer counts that must repeat exactly between passes and runs
COUNTS = (
    "enumeration.candidates", "enumeration.diagrams", "relations.rows",
    "relations.zero_rows", "relations.duplicate_rows", "relations.nnz",
    "exactla.rank", "exactla.max_coeff_bits", "symmetry.orbits",
    "symmetry.incomplete_orbits", "symmetry.repair_rounds", "cache.hits",
    "cache.misses", "cache.bytes_read", "cache.bytes_written",
)


def set_up(name: str, seed: int, workdir: Path):
    """Import the package and the benchmark's modules, then build and
    prepare the workload; returns it with its checker and the modules
    ``spans`` and ``calibrate``."""
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    checker = checks.Checker(checks.load_reference())
    workload = workloads.WORKLOADS[name](seed, checker, workdir)
    workload.prepare()
    return (workload, checker, importlib.import_module("spans"),
            importlib.import_module("calibrate"))


def forget_imports() -> None:
    for mod in list(sys.modules):
        if mod.split(".")[0] in ("chordbasis", *OWN_MODULES):
            del sys.modules[mod]
    gc.collect()  # free the old modules, so that they do not add to the peak


# span name -> per-layer metric holding its self time per pass
SPAN_METRICS = {
    "exactla.assemble": "exactla.assemble_s",
    "exactla.pivot_columns": "exactla.forward_s",
    "exactla.rref": "exactla.rref_s",
    "exactla.express_pivots": "exactla.express_s",
    "basis.dim_A": "basis.dim_A_s",
    "symmetry.orbit_report": "symmetry.orbit_report_s",
    "symmetry.equivariantize": "symmetry.equivariantize_s",
    "symmetry.verify": "symmetry.verify_s",
    **{f"cli.{c}": f"cli.{c}_s"
       for c in ("enumerate", "basis", "orbits", "equivariant", "express")},
}


def pass_seconds(passes, kinds=None) -> float:
    """The median over passes of a pass's summed wall time of its calls (of
    ``kinds`` only, if given)."""
    return statistics.median(sum(c[1] for c in p.calls if kinds is None or c[0] in kinds)
                             for p in passes)


def scaled_seconds(passes, kernels: list[float], reference_s: float) -> float:
    """The median over passes of a pass's summed wall time ÷ the mean kernel
    time during that pass, times ``reference_s``."""
    return reference_s * statistics.median(
        sum(c[1] for c in p.calls) / k for p, k in zip(passes, kernels))


def layer_metrics(traced, plain, tracer, firsts) -> dict[str, float]:
    """Per-layer metrics: times are medians over the traced passes (or the
    plain passes, for the fused calls), counts come from the first pass."""
    med = statistics.median
    per_pass = []
    for first, stop in zip(firsts, firsts[1:] + [len(tracer.spans)]):
        values = dict.fromkeys(["enumeration.busy_s", "relations.busy_s",
                                *SPAN_METRICS.values()], 0.0)
        for name, secs in tracer.self_times(first, stop).items():
            layer = name.split(".", 1)[0]
            if layer in ("enumeration", "relations"):
                values[layer + ".busy_s"] += secs
            if name in SPAN_METRICS:
                values[SPAN_METRICS[name]] += secs
        per_pass.append(values)
    out = {k: med(p[k] for p in per_pass) for k in per_pass[0]}

    out["basis.dim_C_s"] = pass_seconds(plain, {"basis.dim_C"})
    out["basis.connected_basis_s"] = pass_seconds(plain, {"basis.connected_basis"})
    fused = out["basis.dim_C_s"] + out["basis.connected_basis_s"]
    if fused:
        out["basis.glue_s"] = fused - pass_seconds(traced, {"basis.staged"})
    out["cli.cold_s"] = pass_seconds(plain, {"cli.cold"})
    warm = [c[1] * 1000.0 for p in plain for c in p.calls if c[0] == "cli.warm"]
    if warm:
        q = statistics.quantiles(warm, n=10, method="inclusive")
        out["cli.warm_cmd_ms_p50"] = statistics.median(warm)
        out["cli.warm_cmd_ms_p90"] = q[8]
    out["trace.overhead_frac"] = pass_seconds(traced) / pass_seconds(plain) - 1.0

    c = traced[0].counts
    out.update({k: c[k] for k in COUNTS if k in c})

    def ratio(a, b):
        return c.get(a, 0) / c[b] if c.get(b) else 0.0

    out["enumeration.yield"] = ratio("enumeration.diagrams", "enumeration.candidates")
    out["relations.useful_frac"] = ratio("relations.distinct_rows", "relations.rows")
    out["exactla.rank_frac"] = ratio("exactla.rank", "exactla.nonzero_rows")
    looked_up = c.get("cache.hits", 0) + c.get("cache.misses", 0)
    out["cache.hit_frac"] = c.get("cache.hits", 0) / looked_up if looked_up else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "chordbasis" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} needs BENCHMARK.json and src/chordbasis", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        os.environ["CHORDBASIS_CACHE"] = str(workdir / "env-cache")
        # Set up several times and take the median. The first set-up runs
        # from the top of this file; each later one imports the package
        # afresh. The last one's workload is the one measured.
        # Each is rescaled by a kernel time taken just before it (just
        # after, for the first).
        setup, setup_kernel = [], []
        for i in range(SETUP_SAMPLES):
            t0 = START
            if i:
                forget_imports()
                setup_kernel.append(calibrate.kernel_seconds())
                t0 = time.perf_counter()
            workload, checker, spans, calibrate = set_up(args.workload, args.seed, workdir)
            setup.append(time.perf_counter() - t0)
            if not i:
                setup_kernel.append(calibrate.kernel_seconds())
        imported = Path(sys.modules["chordbasis"].__file__).resolve().parent
        if imported != SRC / "chordbasis":
            print(f"error: imported chordbasis from {imported}", file=sys.stderr)
            return 2

        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        calibrator = workload.calibrator = calibrate.Calibrator()
        plain, traced, firsts = [], [], []
        kernels = []  # per plain pass, the mean kernel time during it
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            calibrator.refresh()
            first = len(calibrator.samples) - 1
            plain.append(workload.plain_pass())
            kernels.append(statistics.mean(calibrator.samples[first:]))
            if args.trace:
                firsts.append(tracer.start_pass(len(traced)))
                traced.append(workload.traced_pass(tracer))
                for name in COUNTS:
                    got, want = traced[-1].counts.get(name), traced[0].counts.get(name)
                    if got != want:
                        checker.fail(f"count {name} changed between passes: "
                                     f"{want} then {got}")
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        computed = layer_metrics(traced, plain, tracer, firsts)
        wanted = spec["per_layer"]
        unknown = set(computed) - {m["name"] for m in wanted}
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    else:
        computed = {
            "scaled_wall_s": scaled_seconds(plain, kernels, calibrate.REFERENCE_S),
            "setup_s": calibrate.REFERENCE_S * statistics.median(
                s / k for s, k in zip(setup, setup_kernel)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} attempted={checker.attempted} failed={checker.failed} "
          f"failed_frac={checker.failed / checker.attempted:.4f}")
    print("pass wall_s: " + " ".join(f"{sum(c[1] for c in r.calls):.4f}" for r in plain))
    print(f"unscaled: wall_s={pass_seconds(plain):.4f} setup_s={statistics.median(setup):.4f}; "
          f"kernel_ms median={1000 * statistics.median(kernels):.2f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 1 if checker.failed else 0


if __name__ == "__main__":
    sys.exit(main())
