"""Completion view over a run's work ledger.

The tracker answers the simulation's ground-truth questions about the
``n`` idempotent units - which have been performed, how often, by whom
first and when - by reading the run's :class:`~repro.sim.metrics.Metrics`,
the one ledger in which every execution is booked exactly once.  An
engine given a tracker adopts ``tracker.metrics`` as its own, so the
completion queries and the reported work measures can never disagree.
The tracker adds only what the ledger does not hold: the ``1..n`` range
check and each unit's first execution.  The protocols' *knowledge* of
completed work lives inside the processes; the gap between that
knowledge and this view is exactly the redundant work the paper's
theorems bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.metrics import Metrics


class WorkTracker:
    """Books executions of units ``1..n`` into :attr:`metrics`."""

    def __init__(self, n: int):
        if n < 0:
            raise ConfigurationError(f"cannot track a negative number of units: {n}")
        self.n = n
        self.metrics = Metrics()
        self._first: Dict[int, Tuple[int, int]] = {}  # unit -> (round, pid)

    # ---- recording ---------------------------------------------------

    def record(self, pid: int, unit: int, round_number: int) -> None:
        if not 1 <= unit <= self.n:
            raise ConfigurationError(
                f"process {pid} performed unit {unit}, outside 1..{self.n}"
            )
        # Metrics.record_work, inlined: a unit is booked in one call.
        metrics = self.metrics
        metrics.work_total += 1
        by_unit = metrics.work_by_unit
        by_unit[unit] = by_unit.get(unit, 0) + 1
        by_process = metrics.work_by_process
        by_process[pid] = by_process.get(pid, 0) + 1
        if round_number > metrics.rounds:
            metrics.rounds = round_number
        first = self._first
        if unit not in first:
            first[unit] = (round_number, pid)

    # ---- queries -----------------------------------------------------

    def times_done(self, unit: int) -> int:
        return self.metrics.work_by_unit.get(unit, 0)

    def all_done(self) -> bool:
        return len(self.metrics.work_by_unit) == self.n

    def missing_units(self) -> List[int]:
        done = self.metrics.work_by_unit
        return [unit for unit in range(1, self.n + 1) if unit not in done]

    def total_executions(self) -> int:
        return self.metrics.work_total

    def redundant_executions(self) -> int:
        return self.metrics.redundant_work()

    def first_execution(self, unit: int) -> Optional[Tuple[int, int]]:
        """(round, pid) of the first execution of ``unit``, if any."""
        return self._first.get(unit)

    def completion_round(self) -> Optional[int]:
        """Round by which every unit had been performed at least once."""
        if not self.all_done():
            return None
        return max(
            (round_number for round_number, _ in self._first.values()), default=0
        )

    def max_multiplicity(self) -> int:
        return max(self.metrics.work_by_unit.values(), default=0)
