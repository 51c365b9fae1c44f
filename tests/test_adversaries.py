"""Adversary strategy semantics."""

import pytest

from repro import run_protocol
from repro.api import Scenario
from repro.errors import AdversaryError, ConfigurationError
from repro.sim.adversary import (
    Cascade,
    CrashMidBroadcast,
    FixedSchedule,
    KillActive,
    NoFailures,
    RandomCrashes,
    StaggeredWorkKills,
    compose,
)
from repro.sim.crashes import CrashDirective
from repro.sim.trace import Trace


def test_no_failures_is_a_noop():
    result = run_protocol("A", 20, 4, adversary=NoFailures(), seed=0)
    assert result.metrics.crashes == 0


def test_fixed_schedule_hits_exact_rounds():
    trace = Trace(enabled=True)
    schedule = FixedSchedule([CrashDirective(pid=0, at_round=3)])
    result = run_protocol("A", 20, 4, adversary=schedule, seed=0, trace=trace)
    assert result.metrics.crashes == 1
    crash = trace.first("crash")
    assert crash.pid == 0 and crash.round == 3


def test_random_crashes_respects_budget():
    for seed in range(5):
        result = run_protocol(
            "D", 40, 8, adversary=RandomCrashes(5, max_action_index=10), seed=seed
        )
        assert result.metrics.crashes <= 5
        assert result.survivors >= 3


def test_random_crashes_never_kills_everyone():
    result = run_protocol(
        "replicate", 10, 4, adversary=RandomCrashes(10, max_action_index=3), seed=1
    )
    assert result.survivors >= 1


def test_random_crashes_victim_restriction():
    result = run_protocol(
        "D",
        40,
        8,
        adversary=RandomCrashes(3, max_action_index=5, victims=[1, 2, 3]),
        seed=2,
    )
    # Only the 3 listed victims may crash.
    assert result.survivors >= 5


def test_kill_active_kills_the_active_process():
    trace = Trace(enabled=True)
    result = run_protocol(
        "A", 40, 9, adversary=KillActive(3, actions_before_kill=2), seed=0, trace=trace
    )
    assert result.completed
    crashes = [event.pid for event in trace.of_kind("crash")]
    activations = [pid for _, pid in trace.activations()]
    assert crashes == activations[: len(crashes)]


def test_kill_active_budget_zero_never_crashes():
    result = run_protocol("A", 20, 4, adversary=KillActive(0), seed=0)
    assert result.metrics.crashes == 0


def test_cascade_initial_dead_and_leader():
    trace = Trace(enabled=True)
    adversary = Cascade(lead_units=3, redo_units=1, initial_dead=[5, 6, 7])
    result = run_protocol("C", 16, 8, adversary=adversary, seed=1, trace=trace)
    assert result.completed
    crashed_pids = {event.pid for event in trace.of_kind("crash")}
    assert {5, 6, 7} <= crashed_pids
    assert 0 in crashed_pids  # the leader fell after its lead units


def test_staggered_work_kills_trigger_on_quota():
    adversary = StaggeredWorkKills.plan([(1, 2), (3, 4)])
    trace = Trace(enabled=True)
    result = run_protocol("D", 40, 8, adversary=adversary, seed=0, trace=trace)
    assert result.completed
    # Each victim performed its quota before dying.
    for victim, quota in ((1, 2), (3, 4)):
        performed = [e for e in trace.of_kind("work") if e.pid == victim]
        assert len(performed) == quota


def test_crash_mid_broadcast_delivers_strict_subset_sometimes():
    deliveries = []
    for seed in range(8):
        trace = Trace(enabled=True)
        run_protocol(
            "A", 32, 16, adversary=CrashMidBroadcast([0]), seed=seed, trace=trace
        )
        sent_after_crash = len(
            [e for e in trace.of_kind("send") if e.pid == 0]
        )
        deliveries.append(sent_after_crash)
    assert len(set(deliveries)) > 1  # the kept subset varies with the seed


def test_kill_before_checkpoint_loses_the_interval():
    from repro.sim.adversary import KillBeforeCheckpoint

    # The second shape's sparse checkpoints blow the 3n work bound.
    for n, t, interval in [(60, 6, 20), (1296, 36, 648)]:
        result = run_protocol(
            "naive",
            n,
            t,
            interval=interval,
            adversary=KillBeforeCheckpoint(t - 1),
            seed=0,
        )
        assert result.completed
        # Every kill fires at the first broadcast attempt: exactly one full
        # interval of work is lost per crash.
        assert result.metrics.work_total == n + (t - 1) * interval


def test_kill_before_checkpoint_budget_respected():
    from repro.sim.adversary import KillBeforeCheckpoint

    result = run_protocol(
        "naive", 30, 6, interval=10, adversary=KillBeforeCheckpoint(2), seed=0
    )
    assert result.metrics.crashes == 2


def test_compose_runs_both():
    adversary = compose(
        FixedSchedule([CrashDirective(pid=0, at_round=1)]),
        FixedSchedule([CrashDirective(pid=1, at_round=2)]),
    )
    result = run_protocol("A", 20, 8, adversary=adversary, seed=0)
    assert result.metrics.crashes == 2


def _annihilations():
    """A schedule that kills all 4 processes, bare and inside ``compose``:
    ``compose`` never drops a fixed-schedule crash."""
    def schedule():
        return FixedSchedule([CrashDirective(pid=pid, at_round=0) for pid in range(4)])

    return [
        schedule(),
        compose(schedule(), RandomCrashes(3)),
        compose(KillActive(3), schedule()),
    ]


def test_engine_rejects_total_annihilation():
    for adversary in _annihilations():
        with pytest.raises(AdversaryError):
            run_protocol("A", 10, 4, adversary=adversary, seed=0)


def test_total_annihilation_with_opt_in_reports_incomplete():
    for adversary in _annihilations():
        result = run_protocol(
            "A", 10, 4, adversary=adversary, seed=0, allow_total_failure=True
        )
        assert not result.completed
        assert result.survivors == 0


#: The spec ``repro run B --crashes 3 --kill-active 3`` builds.
_CLI_COMPOSE = {
    "kind": "compose",
    "parts": [
        {"kind": "kill-active", "budget": 3, "actions_before_kill": 1},
        {"kind": "random", "count": 3, "max_action_index": 40},
    ],
}


@pytest.mark.parametrize(
    "protocol, spec",
    [
        ("D", "crash-mid-broadcast:0+1+2+3"),
        ("D", "staggered:0x1+1x1+2x1+3x1"),
        ("D", {"kind": "compose", "parts": ["staggered:0x1+1x1", "staggered:2x1+3x1"]}),
        ("D", {"kind": "compose", "parts": ["random:3", "crash-mid-broadcast:0+1+2+3"]}),
        ("A", _CLI_COMPOSE),
        ("B", _CLI_COMPOSE),
    ],
    ids=[
        "mid-broadcast", "staggered", "compose-staggered",
        "compose-random-mid-broadcast", "cli-compose-A", "cli-compose-B",
    ],
)
def test_adaptive_adversaries_leave_a_survivor(protocol, spec):
    """Each part plans crashes against the crashes already chosen this
    round, and ``compose`` against the union's victims, so no adaptive
    shape ever asks for the last process.  (With per-part checks alone,
    seeds 33, 76 and 87 of the random/mid-broadcast union and 9, 64
    and 88 of the CLI union on B still ask for it.)"""
    for seed in range(100):
        result = Scenario(protocol=protocol, n=64, t=4, seed=seed, adversary=spec).run()
        assert result.completed
        assert result.metrics.crashes <= 3



@pytest.mark.parametrize(
    "kind, parameter, spec",
    [
        ("random", "victims", "random:2,victims=99+100"),
        ("crash-recover", "victims", "crash-recover:1,victims=2+99"),
        ("rack", "groups", "rack:1,groups=99"),
        ("cascade-neighbours", "origins", "cascade-neighbours:99"),
        ("cascade", "initial_dead", "cascade:3,initial_dead=99"),
        ("staggered", "kills", "staggered:99x1"),
        ("crash-mid-broadcast", "victims", "crash-mid-broadcast:99"),
        ("fixed-schedule", "directives", {"kind": "fixed-schedule", "directives": [{"pid": 99}]}),
        (
            "fixed-schedule",
            "directives",
            {"kind": "fixed-schedule", "directives": [{"pid": 1, "keep": [0, 99]}]},
        ),
    ],
)
def test_a_pid_the_run_does_not_have_is_a_named_error(kind, parameter, spec):
    """The spec grammar cannot know ``t``; each kind checks the pids it
    names when it binds to the run, before the first round."""
    scenario = Scenario(protocol="D-recovery", n=32, t=8, adversary=spec)
    with pytest.raises(ConfigurationError) as excinfo:
        scenario.run()
    message = str(excinfo.value)
    for part in (f"'{kind}'", f"'{parameter}'", "pid 99", "t=8"):
        assert part in message
