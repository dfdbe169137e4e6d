"""In-memory span recorder for the traced benchmark run.

Spans are kept in a list while the run goes on and written out once, when it
ends. Each span has a name (``<layer>.<call>``), a start and an end taken
from ``time.perf_counter``, the index of the span that encloses it, and the
id of the pass (one run of the workload's instance set) it belongs to.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pass_id = ""
        self.spans: list[dict] = []
        self._open: list[int] = []

    def start_pass(self, index: int) -> int:
        """Begin a new pass; returns the index of its first span."""
        self.pass_id = f"{self.run_id}/pass{index}"
        return len(self.spans)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.pass_id}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, first: int, stop: int) -> dict[str, float]:
        """Self time per span name over the spans ``first`` to ``stop - 1``
        (one pass): a span's duration minus the time its child spans cover.
        Calls run one at a time, so child spans never overlap."""
        spans = self.spans[first:stop]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None and s["parent"] >= first:
                child_time[s["parent"] - first] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
