"""Summarise one result set, or compare two, against BENCHMARK.json.

    python3 perfbench/compare.py perfbench/out/a.jsonl
    python3 perfbench/compare.py perfbench/out/a.jsonl perfbench/out/b.jsonl

For every workload and end-to-end metric it prints each set's median and
quartiles and the spread (q3 - q1) / median; a spread above a third of the
metric's bound is marked ``wide``. With two sets it also says whether the
second median is within the bound of the first (``agree``), and whether it
is worse by more than the bound (``WORSE``). Per-layer counts of traced runs
must repeat exactly: any count that differs between runs of one workload, in
either set, is listed as a failure. The exit code is 1 when any set has an
incorrect run, a differing count, or a second median worse than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import COUNTS  # noqa: E402


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(paths: list[str]) -> int:
    if not 1 <= len(paths) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load(p) for p in paths]
    bad = 0
    for label, records in zip("AB", sets):
        for r in records:
            if not r["correct"]:
                print(f"set {label}: {r['workload']} seed={r['seed']} trace={r['trace']} "
                      f"incorrect ({r['failed']} of {r['attempted']} ops failed)")
                bad += 1
    counts: dict[str, dict[str, set]] = {}
    for records in sets:
        for r in records:
            if r["trace"]:
                seen = counts.setdefault(r["workload"], {})
                for name in COUNTS:
                    seen.setdefault(name, set()).add(r["metrics"][name]["value"])
    for workload, seen in counts.items():
        for name, values in seen.items():
            if len(values) > 1:
                print(f"COUNT DIFFERS {workload} {name}: {sorted(values)}")
                bad += 1

    header = f"{'workload':<10} {'metric':<14}"
    for label in "AB"[:len(sets)]:
        header += f" | {label}: {'q1':>9} {'median':>9} {'q3':>9} {'spread':>7}"
    print(header + ("  verdict" if len(sets) == 2 else ""))
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            row = f"{w['name']:<10} {m['name']:<14}"
            medians = []
            for records in sets:
                values = [r["metrics"][m["name"]]["value"] for r in records
                          if r["workload"] == w["name"] and not r["trace"]]
                if not values:
                    row += f" | {'no runs':>40}"
                    medians.append(None)
                    continue
                q1, med, q3 = stats(values)
                spread = (q3 - q1) / med if med else float("inf")
                flag = "wide" if spread > m["bound"] / 3 else ""
                row += f" | {q1:9.4g} {med:9.4g} {q3:9.4g} {spread:7.3f} {flag:<4}"
                medians.append(med)
            if len(sets) == 2 and None not in medians:
                a, b = medians
                change = (b - a) / a
                worse = change if m["better"] == "lower" else -change
                verdict = "agree" if abs(change) <= m["bound"] else "differ"
                if worse > m["bound"]:
                    verdict = "WORSE"
                    bad += 1
                row += f"  {verdict} ({change:+.1%})"
            print(row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
