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
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import bounds
from repro.errors import ConfigurationError
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
    """Whether a Protocol D run reverted to Protocol A, which decides
    which of D's two bound families applies.  D itself sends no
    checkpoints, so any A checkpoint traffic means it reverted."""
    return (
        metrics.messages_of(MessageKind.PARTIAL_CHECKPOINT)
        + metrics.messages_of(MessageKind.FULL_CHECKPOINT)
    ) > 0


_WORK_MESSAGE_BOUNDS: Dict[str, Tuple[Callable, Callable]] = {
    "A": (bounds.protocol_a_work, bounds.protocol_a_messages),
    "B": (bounds.protocol_b_work, bounds.protocol_b_messages),
    "C": (bounds.protocol_c_work, bounds.protocol_c_messages),
    "C-BATCHED": (bounds.protocol_c_batched_work, bounds.protocol_c_batched_messages),
}

_ROUND_BOUNDS: Dict[str, Callable] = {
    "A": bounds.protocol_a_rounds,
    "B": bounds.protocol_b_rounds,
    "C": bounds.protocol_c_rounds,
}


def verify_run(
    result: RunResult,
    protocol: str,
    n: int,
    t: int,
    *,
    failures: Optional[int] = None,
    round_slack: Optional[int] = None,
) -> VerificationReport:
    """Check ``result`` against every bound the paper proves for
    ``protocol`` on an ``(n, t)`` instance.

    ``failures`` is required for Protocol D (its message/round bounds are
    failure-dependent).  ``round_slack`` widens round-bound checks by the
    implementation's documented deadline slack; if ``None``, round bounds
    are reported but checked with a slack of ``4 t`` (the default slack
    of 2 paid on up to ``2t`` deadline evaluations).
    """
    key = protocol.upper()
    report = VerificationReport(protocol=protocol, n=n, t=t, checks=[])
    metrics = result.metrics
    slack = round_slack if round_slack is not None else 4 * t

    def add(name: str, bound, measured: float, widen: float = 0.0) -> None:
        report.checks.append(
            Check(
                name=name,
                formula=bound.formula,
                bound=bound.value,
                measured=measured,
                ok=measured <= bound.value + widen,
            )
        )

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

    if key in _WORK_MESSAGE_BOUNDS:
        work_bound, msg_bound = _WORK_MESSAGE_BOUNDS[key]
        add("work", work_bound(n, t), metrics.work_total)
        add("messages", msg_bound(n, t), metrics.messages_total)
        if key in _ROUND_BOUNDS:
            add("rounds", _ROUND_BOUNDS[key](n, t), float(metrics.retire_round), widen=slack)
    elif key == "D":
        if failures is None:
            raise ConfigurationError(
                "Protocol D's bounds depend on the failure count; pass failures="
            )
        if protocol_d_reverted(metrics):
            add("work", bounds.protocol_d_reverted_work(n, t, failures), metrics.work_total)
            add(
                "messages",
                bounds.protocol_d_reverted_messages(n, t, failures),
                metrics.messages_total,
            )
        else:
            add("work", bounds.protocol_d_work(n, t, failures), metrics.work_total)
            add(
                "messages",
                bounds.protocol_d_messages(n, t, failures),
                metrics.messages_total,
            )
            add(
                "rounds",
                bounds.protocol_d_rounds(n, t, failures),
                float(metrics.retire_round + 1),
                widen=slack,
            )
    elif key == "REPLICATE":
        add("work", bounds.replicate_work(n, t), metrics.work_total)
    elif key == "NAIVE":
        pass  # the straw man has no paper bound beyond completion
    else:
        raise ConfigurationError(
            f"no verification rules for protocol {protocol!r}"
        )
    return report
