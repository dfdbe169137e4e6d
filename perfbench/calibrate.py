"""A fixed pure-Python kernel that measures how fast the machine runs right
now.

The machine's speed drifts: on a shared 2-vCPU VM the same call can take
30-60% longer for seconds or minutes at a time, by wall clock and by the
process's CPU clock alike. The benchmark therefore times this kernel before
the calls it measures, at most every ``EVERY_S`` seconds, and reports a
pass's time rescaled by ``REFERENCE_S / mean kernel time during the pass``. A drift in the machine's speed then cancels
to a large part, while a change in chordbasis does not, since the kernel
uses no chordbasis code. Its work resembles the program's: the least
rotation form of random chord diagrams (the benchmark's own
``canonical_string``) and Gauss-Jordan elimination over ``Fraction``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from checks import canonical_string

# About the kernel's time on an unloaded 2.1 GHz Xeon; rescaled times are
# in seconds at that speed.
REFERENCE_S = 0.020
# a timed call is preceded by a new kernel time once this many seconds have
# passed since the last one
EVERY_S = 0.25


def kernel() -> None:
    rng = random.Random(0)
    for _ in range(100):
        feet = [c for c in range(5) for _ in (0, 1)]
        rng.shuffle(feet)
        canonical_string("".join(map(str, feet[:4])) + "|" + "".join(map(str, feet[4:])))
    n = 14
    rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrator:
    """Keeps the kernel times measured during a run, at most one per
    ``EVERY_S`` seconds."""

    def __init__(self):
        self.samples = [kernel_seconds()]
        self._at = time.perf_counter()

    def refresh(self) -> None:
        """Measure the kernel again if the last time is too old."""
        if time.perf_counter() - self._at > EVERY_S:
            self.samples.append(kernel_seconds())
            self._at = time.perf_counter()
