"""Record the artifact digests that the benchmark checks against.

    python3 perfbench/reference.py

Runs one plain and one traced pass of every workload with a recording
checker and writes ``perfbench/reference.json``. Run it only on a commit
whose artifacts are trusted: every later run is compared with these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCE_PATH, Checker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    checker = Checker(None)
    workdir = HERE / "out" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for cls in WORKLOADS.values():
            workload = cls(1, checker, workdir)
            workload.prepare()
            workload.plain_pass()
            workload.traced_pass(Tracer("reference"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if checker.failed:
        print("\n".join(checker.failures), file=sys.stderr)
        return 1
    REFERENCE_PATH.write_text(json.dumps(checker.recorded, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {len(checker.recorded)} digests to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
