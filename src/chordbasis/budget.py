"""Resource budgets for the enumeration / linear-algebra pipeline.

Budgets make "too big" a first-class, reported outcome: when a cap is hit
the computation stops with :class:`BudgetExceededError` rather than running
unbounded or returning a truncated (wrong) result.  A budget pays for each
quotient once, warm or cold (``Budget.paid``, keyed as ``basis.quotient``
memoizes).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import BudgetExceededError, DiagramError

# Defaults are sized so that every instance with n <= 4 fits with orders of
# magnitude to spare, and n = 5 with m <= 6 fits comfortably.  The largest
# matrix verify builds, the distinct rows of the active set on six circles
# with five chords (a direct-rank block of A(6, 5)), has 13560 x 14724
# (about 2.0e8) cells.
DEFAULT_MAX_CANDIDATES = 10**9
DEFAULT_MAX_MATRIX_CELLS = 10**10
DEFAULT_TIME_BUDGET = 0.0  # seconds; 0 means unlimited

# the memo key of a quotient: (m, n, kind), kind the family of diagrams
# (``enumeration.KINDS``, ``basis.quotient``)
QuotientKey = tuple[int, int, str]


@dataclass
class Budget:
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    max_matrix_cells: int = DEFAULT_MAX_MATRIX_CELLS
    time_budget: float = DEFAULT_TIME_BUDGET
    candidates_used: int = field(default=0, init=False)
    paid: set[QuotientKey] = field(default_factory=set, init=False)
    _deadline: float = field(default=0.0, init=False)

    def __post_init__(self):
        # A budget that means nothing is refused.  Zero is a cap of zero for
        # the caps and no limit for the time budget.
        for key, value in (("max-candidates", self.max_candidates),
                           ("max-matrix-cells", self.max_matrix_cells)):
            if value < 0:
                raise DiagramError(f"{key} must be at least 0, not {value}")
        if not (math.isfinite(self.time_budget) and self.time_budget >= 0):
            raise DiagramError("time-budget must be a finite number of seconds, "
                               f"at least 0 (0 is unlimited), not {self.time_budget:g}")
        if self.time_budget:
            self._deadline = time.monotonic() + self.time_budget

    def charge_candidates(self, count: int) -> None:
        self.candidates_used += count
        if self.candidates_used > self.max_candidates:
            raise BudgetExceededError(
                f"candidate budget exceeded: {self.candidates_used} > "
                f"{self.max_candidates} (instance is beyond desk scale)"
            )
        self.check_time()

    def check_cells(self, nrows: int, ncols: int) -> None:
        if nrows * ncols > self.max_matrix_cells:
            raise BudgetExceededError(
                f"matrix budget exceeded: {nrows}x{ncols} > "
                f"{self.max_matrix_cells} cells"
            )
        self.check_time()

    def check_time(self) -> None:
        if self._deadline and time.monotonic() > self._deadline:
            raise BudgetExceededError(
                f"time budget of {self.time_budget:g}s exceeded"
            )


def ensure_budget(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget()
