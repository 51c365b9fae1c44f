"""The one-call bound-verification API."""

import pytest

from repro import run_protocol
from repro.analysis.verify import verify_run
from repro.core.registry import available_protocols
from repro.errors import ConfigurationError
from repro.sim.adversary import KillActive, StaggeredWorkKills


@pytest.mark.parametrize("protocol", ["A", "B", "C", "C-batched"])
def test_sequential_protocols_verify_clean(protocol):
    n, t = 64, 16
    result = run_protocol(protocol, n, t, seed=1)
    report = verify_run(result, protocol, n, t)
    assert report.ok, report.failures()
    names = {check.name for check in report.checks}
    assert {"completion", "work", "messages"} <= names


@pytest.mark.parametrize("protocol", ["A", "B", "C"])
def test_sequential_protocols_verify_under_attack(protocol):
    n, t = 64, 16
    result = run_protocol(
        protocol, n, t, adversary=KillActive(t - 1, actions_before_kill=2), seed=2
    )
    report = verify_run(result, protocol, n, t)
    assert report.ok, report.failures()


def test_protocol_d_requires_failure_count():
    """D's bounds depend on the failure count; left out, it is the
    run's own crash count."""
    result = run_protocol(
        "D", 64, 16, adversary=StaggeredWorkKills.plan([(1, 1), (3, 2)]), seed=2
    )
    assert result.metrics.crashes == 2
    report = verify_run(result, "D", 64, 16)
    assert report == verify_run(result, "D", 64, 16, failures=result.metrics.crashes)
    assert report != verify_run(result, "D", 64, 16, failures=0)
    report = verify_run(run_protocol("D", 64, 16, seed=1), "D", 64, 16, failures=0)
    assert report.ok, report.failures()


def test_protocol_d_with_failures():
    result = run_protocol(
        "D", 64, 16, adversary=StaggeredWorkKills.plan([(1, 1), (3, 2)]), seed=2
    )
    report = verify_run(result, "D", 64, 16, failures=2)
    assert report.ok, report.failures()


def test_protocol_d_reversion_uses_reverted_bounds():
    f = 10
    result = run_protocol(
        "D",
        64,
        16,
        adversary=StaggeredWorkKills.plan([(pid, 1) for pid in range(f)]),
        seed=3,
    )
    report = verify_run(result, "D", 64, 16, failures=f)
    assert report.ok, report.failures()
    formulas = {check.formula for check in report.checks}
    assert any("4n" in formula for formula in formulas)


def test_report_flags_violations():
    # Verify a replicate run against Protocol C's (much tighter) bounds:
    # the report must flag work > n + 2t rather than raise.
    result = run_protocol("replicate", 64, 16, seed=1)
    report = verify_run(result, "C", 64, 16)
    assert not report.ok
    assert any(check.name == "work" for check in report.failures())


def test_rows_rendering():
    result = run_protocol("A", 32, 9, seed=1)
    report = verify_run(result, "A", 32, 9)
    rows = report.as_rows()
    assert all({"check", "bound", "measured", "ok"} <= set(row) for row in rows)


@pytest.mark.parametrize("protocol", available_protocols("sync"))
def test_every_sync_protocol_verifies(protocol):
    """Every registered sync protocol has a table entry; one with no
    paper bound gets the completion check only."""
    n, t = 24, 4
    result = run_protocol(protocol, n, t, seed=1)
    report = verify_run(result, protocol, n, t)
    assert report.ok, report.failures()
    names = [check.name for check in report.checks]
    assert names[0] == "completion"
    if protocol in ("naive", "c-naive", "d-dynamic", "d-recovery"):
        assert names == ["completion"]
    else:
        assert len(names) > 1


def test_a_async_run_verifies_against_theorem_2_3():
    """An A-async run is judged on Theorem 2.3's work and message bounds
    (the Section 2.1 remark) and, having no rounds, on no time bound."""
    from repro.api import Scenario

    n, t = 64, 16
    crash_times = {pid: 3.0 + 9.0 * pid for pid in range(1, t // 2 + 1)}
    result = Scenario(protocol="A-async", n=n, t=t, crash_times=crash_times).run()
    report = verify_run(result, "A-async", n, t)
    assert report.ok, report.failures()
    assert [check.name for check in report.checks] == [
        "completion",
        "work",
        "messages",
    ]
    measured = {check.name: check.measured for check in report.checks}
    assert measured["work"] == result.metrics.work_total
    assert measured["messages"] == result.metrics.messages_total


def test_unknown_protocol_raises():
    result = run_protocol("A", 16, 4, seed=0)
    with pytest.raises(ConfigurationError):
        verify_run(result, "Z", 16, 4)


def test_incomplete_total_failure_flagged():
    from repro.sim.adversary import FixedSchedule
    from repro.sim.crashes import CrashDirective

    schedule = FixedSchedule([CrashDirective(pid=p, at_round=0) for p in range(4)])
    result = run_protocol(
        "A", 16, 4, adversary=schedule, seed=0, allow_total_failure=True
    )
    report = verify_run(result, "A", 16, 4)
    # No survivor: the completion check is skipped (the paper's guarantee
    # is conditional on a survivor), and effort bounds trivially hold.
    assert all(check.name != "completion" for check in report.checks)
