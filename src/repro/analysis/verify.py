"""One-call verification of a run against the paper's bounds.

For downstream users who embed the protocols elsewhere: given a
:class:`~repro.sim.metrics.RunResult` and the configuration it came
from, check every bound the paper proves for that protocol and return a
structured report.

    from repro import run_protocol
    from repro.analysis.verify import verify_run

    result = run_protocol("B", 256, 16, adversary=..., seed=1)
    report = verify_run(result, "B", 256, 16)
    assert report.ok, report.failures()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis import bounds
from repro.sim.actions import MessageKind
from repro.sim.metrics import Metrics, RunResult


@dataclass(frozen=True)
class Check:
    """One verified bound."""

    name: str
    formula: str
    bound: float
    measured: float
    ok: bool


@dataclass
class VerificationReport:
    protocol: str
    n: int
    t: int
    checks: List[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> List[Check]:
        return [check for check in self.checks if not check.ok]

    def as_rows(self) -> List[Dict[str, object]]:
        return [
            {
                "check": check.name,
                "bound": f"{check.formula} = {check.bound:g}",
                "measured": check.measured,
                "ok": check.ok,
            }
            for check in self.checks
        ]


def protocol_d_reverted(metrics: Metrics) -> bool:
    """Whether a Protocol D run reverted to Protocol A (the
    ``reverted`` fact :func:`~repro.analysis.bounds.theorem_bounds`
    reads).  D itself sends no checkpoints, so any A checkpoint traffic
    means it reverted."""
    return (
        metrics.messages_of(MessageKind.PARTIAL_CHECKPOINT)
        + metrics.messages_of(MessageKind.FULL_CHECKPOINT)
    ) > 0


def verify_run(
    result: RunResult,
    protocol: str,
    n: int,
    t: int,
    *,
    failures: Optional[int] = None,
) -> VerificationReport:
    """Check ``result`` against every bound the paper proves for
    ``protocol`` on an ``(n, t)`` instance: the work was completed, and
    each bound of :func:`repro.analysis.bounds.theorem_bounds` holds.

    ``failures`` (Protocol D's bounds depend on it) defaults to the
    run's own crash count.  A protocol with no paper bound gets the
    completion check only.  Each bound is judged by
    :meth:`~repro.analysis.bounds.Bound.holds_for`, slack included.
    """
    metrics = result.metrics
    table = bounds.theorem_bounds(
        protocol,
        n,
        t,
        failures=metrics.crashes if failures is None else failures,
        reverted=protocol_d_reverted(metrics),
    )
    report = VerificationReport(protocol=protocol, n=n, t=t, checks=[])
    if result.survivors >= 1:
        report.checks.append(
            Check(
                name="completion",
                formula="all n units performed",
                bound=float(n),
                measured=float(metrics.distinct_units_done()),
                ok=result.completed,
            )
        )
    measures = metrics.measures()
    for name, bound in table.items():
        report.checks.append(
            Check(
                name=name,
                formula=bound.formula,
                bound=bound.value,
                measured=bound.measured(measures[name]),
                ok=bound.holds_for(measures[name]),
            )
        )
    return report
