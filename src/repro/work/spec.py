"""Specification of a Do-All workload.

The paper's units of work are abstract, identical and idempotent; a
:class:`WorkSpec` captures the count plus optional human-facing metadata
(what the units *mean* in a given scenario) and an optional side-effect
hook.  The hook is how the Byzantine-agreement application of Section 5
plugs in: there, performing unit ``p`` physically means sending the
general's value to process ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.sim.actions import Broadcast

UnitEffect = Callable[[int, int, int], Optional[Broadcast]]
"""(pid, unit, round) -> the broadcast performing the unit sends, if any."""


@dataclass
class WorkSpec:
    """A pool of ``n`` idempotent work units.

    Attributes:
        n: number of units, numbered ``1..n``.
        name: scenario name for reports ("valve-check", "db-scan", ...).
        describe_unit: maps a unit number to a human-readable label.
        unit_effect: optional side effect of performing a unit (messages
            injected into the simulation and charged to the performer).
    """

    n: int
    name: str = "generic"
    describe_unit: Callable[[int], str] = field(default=lambda unit: f"unit {unit}")
    unit_effect: Optional[UnitEffect] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigurationError(f"workload size must be non-negative, got {self.n}")

    def labels(self) -> List[str]:
        return [self.describe_unit(unit) for unit in range(1, self.n + 1)]
