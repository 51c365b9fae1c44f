"""Weighted effort models (the Conclusions' open direction).

"By trying to optimize effort, the sum of work done and messages sent,
we implicitly assumed that one unit of work was equal to one message.
In practice, we may want to weight messages and work differently. [...]
if we weight things a little differently, then a completely different
set of algorithms might turn out to be optimal."

This module makes that remark quantitative: a weighted effort
``work_weight * W + message_weight * M`` and the protocol that is
cheapest under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sim.metrics import Metrics


@dataclass(frozen=True)
class EffortModel:
    """Linear cost model over the paper's two effort currencies."""

    work_weight: float = 1.0
    message_weight: float = 1.0

    def effort(self, metrics: Metrics) -> float:
        return (
            self.work_weight * metrics.work_total
            + self.message_weight * metrics.messages_total
        )

    def effort_of(self, work: float, messages: float) -> float:
        return self.work_weight * work + self.message_weight * messages


def cheapest(
    profiles: Dict[str, Tuple[float, float]], model: EffortModel
) -> str:
    """Name of the protocol with the least weighted effort under ``model``.

    ``profiles`` maps protocol name to its (work, messages) profile.
    Ties break lexicographically for determinism.
    """
    return min(
        sorted(profiles),
        key=lambda name: model.effort_of(*profiles[name]),
    )
