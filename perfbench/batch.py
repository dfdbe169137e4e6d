"""Run the benchmark over workloads x seeds and save the results as one set.

    python3 perfbench/batch.py --seeds 1-10 --out perfbench/out/a.jsonl
    python3 perfbench/batch.py --seeds 1-10 --out perfbench/out/a.jsonl perfbench/out/b.jsonl
    python3 perfbench/batch.py --workloads rows,cli-cache --seeds 1-5 --trace 1 \\
        --out perfbench/out/traced.jsonl

Each run is a fresh ``run.py`` process; each line of an output file is the
run's JSON result with its workload, seed and trace flag added. With two or
more output files, each workload and seed is run once per file, one right
after the other, so that the sets see the same drift in the machine's
speed. Compare sets with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="range a-b or list a,b,c")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, type=Path, nargs="+",
                   help="one result file per set; runs alternate between them")
    args = p.parse_args()
    failed = 0
    for path in args.out:
        path.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            for out in args.out:
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
                run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                     timeout=180)
                lines = run.stdout.strip().splitlines()
                if run.returncode != 0:
                    print(f"{workload} seed={seed}: exit {run.returncode}\n{run.stderr}",
                          file=sys.stderr)
                    failed += 1
                if not lines or not lines[-1].startswith("{"):
                    continue  # no result printed
                result = json.loads(lines[-1])
                record = {"workload": workload, "seed": seed, "trace": args.trace, **result}
                with out.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{out.stem} {workload} seed={seed} correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                 if args.trace == 0))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
