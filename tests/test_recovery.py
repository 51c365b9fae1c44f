"""Crash-recover faults: engine lifecycle, recovery-aware Protocol D,
and the correlated-failure adversaries (rack kills, neighbour cascades)."""

import json
import random

import pytest

from repro import run_protocol
from repro.api import Scenario
from repro.errors import AdversaryError, ConfigurationError
from repro.sim.adversary import (
    FixedSchedule,
    NeighbourCascade,
    RackFailures,
    RecoveringCrashes,
    adversary_from_spec,
)
from repro.sim.crashes import (
    CrashDirective,
    draw_repair_delay,
    normalize_repair_spec,
)
from repro.sim.trace import Trace


# ---- engine lifecycle ------------------------------------------------


def test_fixed_schedule_recovery_crashes_then_rejoins():
    trace = Trace(enabled=True)
    schedule = FixedSchedule([CrashDirective(pid=1, at_round=4, recover_after=3)])
    result = run_protocol(
        "D-recovery", 24, 4, adversary=schedule, seed=0, trace=trace
    )
    assert result.completed
    assert result.metrics.crashes == 1
    assert result.metrics.recoveries == 1
    crash = trace.first("crash")
    recover = trace.first("recover")
    assert crash.pid == 1 and crash.round == 4
    assert recover.pid == 1 and recover.round == 7
    # The rejoiner acted again after coming back.
    assert any(
        e.round >= 7 for e in trace.for_pid(1) if e.kind in ("work", "send")
    )


def test_recovered_process_counts_as_survivor():
    schedule = FixedSchedule([CrashDirective(pid=0, at_round=2, recover_after=2)])
    result = run_protocol("D-recovery", 24, 4, adversary=schedule, seed=1)
    assert result.completed
    assert result.survivors == 4  # nobody is down at the end


def test_recovery_rejected_for_non_recovery_protocols():
    schedule = FixedSchedule([CrashDirective(pid=0, at_round=2, recover_after=2)])
    with pytest.raises(AdversaryError, match="supports_recovery"):
        run_protocol("A", 24, 4, adversary=schedule, seed=0)


def test_recover_after_must_be_positive():
    schedule = FixedSchedule([CrashDirective(pid=0, at_round=2, recover_after=0)])
    with pytest.raises(AdversaryError, match="got 0"):
        run_protocol("D-recovery", 24, 4, adversary=schedule, seed=0)


def test_repeated_crash_recover_cycles_still_terminate():
    schedule = FixedSchedule(
        [
            CrashDirective(pid=2, at_round=3, recover_after=2),
            CrashDirective(pid=2, at_round=9, recover_after=2),
            CrashDirective(pid=2, at_round=15, recover_after=2),
        ]
    )
    result = run_protocol("D-recovery", 24, 4, adversary=schedule, seed=0)
    assert result.completed
    assert result.metrics.crashes == 3
    assert result.metrics.recoveries == 3


def test_rejoiner_outside_the_decided_view_reverts_solo():
    # A rejoiner here adopts a decided view whose T excludes it, then
    # reverts: it must run Protocol A alone over its outstanding units
    # (redoing them) instead of failing to find itself among T.
    result = Scenario(
        protocol="D-recovery",
        n=128,
        t=16,
        seed=606253417,
        adversary="crash-recover:5,repair_delay=3",
    ).run()
    assert result.completed
    assert result.metrics.work_total >= 128
    assert result.metrics.recoveries == result.metrics.crashes == 4


# ---- adversaries -----------------------------------------------------


def test_recovering_crashes_every_crash_recovers():
    for seed in range(4):
        result = run_protocol(
            "D-recovery",
            40,
            8,
            adversary=RecoveringCrashes(3, repair_delay=5, max_action_index=15),
            seed=seed,
        )
        assert result.completed
        assert result.metrics.recoveries == result.metrics.crashes
        assert result.survivors == 8


def test_recovering_crashes_repeat_mode_rearms():
    # Repeat mode can legitimately livelock a victim (crash cadence
    # shorter than a phase replay), so bound the run and read the trace
    # instead of demanding termination.
    from repro.errors import BudgetExceeded

    trace = Trace(enabled=True)
    try:
        run_protocol(
            "D-recovery",
            40,
            8,
            adversary=RecoveringCrashes(
                2, repair_delay=4, max_action_index=10, repeat=True
            ),
            seed=3,
            max_rounds=300,
            trace=trace,
        )
    except BudgetExceeded:
        pass
    crashes = trace.of_kind("crash")
    recoveries = trace.of_kind("recover")
    # Re-arming means more crashes than the victim budget, and every
    # completed repair interval produced a rejoin.
    assert len(crashes) > 2
    assert recoveries
    assert {e.pid for e in recoveries} <= {e.pid for e in crashes}


def test_rack_failures_kill_whole_groups():
    trace = Trace(enabled=True)
    result = run_protocol(
        "D",
        40,
        8,
        adversary=RackFailures(1, group_size=4),
        seed=2,
        trace=trace,
    )
    crashed = {e.pid for e in trace.of_kind("crash")}
    # The victims form one consecutive-pid rack (possibly truncated by
    # the never-kill-everyone guard).
    assert crashed
    assert max(crashed) - min(crashed) < 4
    assert result.completed


def test_rack_failures_with_recovery_rejoin():
    result = run_protocol(
        "D-recovery",
        40,
        8,
        adversary=RackFailures(1, group_size=3, recover_after=6),
        seed=2,
    )
    assert result.completed
    # The chosen rack may be the short leftover group (8 pids in 3s).
    assert result.metrics.crashes >= 2
    assert result.metrics.recoveries == result.metrics.crashes
    assert result.survivors == 8


def test_neighbour_cascade_spreads_from_origin():
    trace = Trace(enabled=True)
    result = run_protocol(
        "D",
        40,
        8,
        adversary=NeighbourCascade([3], p=1.0, budget=4),
        seed=0,
        trace=trace,
    )
    crashes = trace.of_kind("crash")
    assert len(crashes) >= 2  # p=1.0 always infects both neighbours
    # Each later victim neighbours an earlier one on the pid ring.
    infected = [crashes[0].pid]
    for event in crashes[1:]:
        assert any(
            event.pid in ((p - 1) % 8, (p + 1) % 8) for p in infected
        )
        infected.append(event.pid)
    assert result.completed


def test_neighbour_cascade_p_zero_stays_at_origins():
    result = run_protocol(
        "D", 40, 8, adversary=NeighbourCascade([2, 5], p=0.0), seed=5
    )
    assert result.metrics.crashes == 2


# ---- determinism and serialization -----------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        "crash-recover:2,repair_delay=5,max_action_index=12",
        "rack:1,group_size=3,recover_after=6",
        "cascade-neighbours:1,p=0.7,hop_delay=2,recover_after=7",
    ],
)
def test_recovery_adversaries_deterministic_under_seed(spec):
    def run():
        return Scenario(
            protocol="D-recovery", n=48, t=6, seed=9, adversary=spec
        ).run()

    first, second = run(), run()
    assert first.metrics.as_dict() == second.metrics.as_dict()
    assert first.completed and second.completed


def test_recovery_scenario_json_round_trip_reproduces_metrics():
    scenario = Scenario(
        protocol="D-recovery",
        n=48,
        t=6,
        seed=11,
        adversary={
            "kind": "crash-recover",
            "count": 2,
            "repair_delay": 5,
            "max_action_index": 15,
        },
    )
    clone = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    first, second = scenario.run(), clone.run()
    assert first.metrics.as_dict() == second.metrics.as_dict()
    assert first.metrics.recoveries > 0


def test_recovery_metrics_exposed_in_as_dict():
    result = run_protocol(
        "D-recovery",
        24,
        4,
        adversary=FixedSchedule(
            [CrashDirective(pid=1, at_round=4, recover_after=3)]
        ),
        seed=0,
    )
    assert result.metrics.as_dict()["recoveries"] == 1


# ---- spec grammar ----------------------------------------------------


def test_crash_recover_spec_builds_adversary():
    adversary = adversary_from_spec(
        "crash-recover:3,repair_delay=6,max_action_index=20"
    )
    assert isinstance(adversary, RecoveringCrashes)
    assert adversary.repair_delay == 6


def test_rack_spec_group_forms():
    flat = adversary_from_spec("rack:1,groups=0+1+2")
    assert flat.explicit_groups == [[0, 1, 2]]
    explicit = adversary_from_spec(
        {"kind": "rack", "racks": 1, "groups": [[0, 1], [4, 5]]}
    )
    assert explicit.explicit_groups == [[0, 1], [4, 5]]


def test_cascade_neighbours_spec_builds_adversary():
    adversary = adversary_from_spec(
        {"kind": "cascade-neighbours", "origins": [2], "p": 0.25}
    )
    assert isinstance(adversary, NeighbourCascade)
    assert adversary.p == 0.25


@pytest.mark.parametrize(
    "spec, fragment",
    [
        # Malformed values must surface the offending value, not just a
        # parameter name.
        ("crash-recover:2,repair_delay=0", "0"),
        ("crash-recover:2,repair_delay=soon", "'soon'"),
        ("crash-recover:-1", "-1"),
        ({"kind": "crash-recover"}, "count"),
        ({"kind": "crash-recover", "count": 2, "phases": ["sideways"]}, "sideways"),
        ("rack:2,group_size=0", "0"),
        ({"kind": "rack", "racks": 1, "groups": "nope"}, "nope"),
        ({"kind": "rack", "racks": 1, "groups": []}, "[]"),
        ("cascade-neighbours:1,p=1.5", "1.5"),
        ("cascade-neighbours:1,p=high", "'high'"),
        ("cascade-neighbours:1,hop_delay=0", "0"),
        ({"kind": "cascade-neighbours"}, "origins"),
        ({"kind": "random", "count": True}, "True"),
    ],
)
def test_malformed_recovery_specs_name_the_offending_value(spec, fragment):
    with pytest.raises(ConfigurationError) as excinfo:
        adversary_from_spec(spec)
    assert fragment in str(excinfo.value)


# ---- repair-time distributions ---------------------------------------


def test_repair_spec_spellings_canonicalise_identically():
    canonical = {"kind": "uniform", "low": 2, "high": 6}
    for spelling in (
        "uniform:2,6",
        "uniform:2-6",
        "uniform:2..6",
        {"kind": "uniform", "low": 2, "high": 6},
    ):
        assert normalize_repair_spec(spelling, what="x") == canonical
    assert (
        normalize_repair_spec("exp:mean=3", what="x")
        == normalize_repair_spec("exp:3", what="x")
        == {"kind": "exp", "mean": 3.0}
    )
    # Fixed delays stay plain ints (floats are coerced, not kept).
    assert normalize_repair_spec(8, what="x") == 8
    assert normalize_repair_spec(8.0, what="x") == 8
    assert normalize_repair_spec("8", what="x") == 8


def test_repair_spec_spellings_share_a_cache_key():
    def key(repair_delay):
        return Scenario(
            protocol="D-recovery",
            n=48,
            t=6,
            seed=3,
            adversary={
                "kind": "crash-recover",
                "count": 2,
                "repair_delay": repair_delay,
            },
        ).cache_key()

    assert (
        key("uniform:2,6")
        == key("uniform:2-6")
        == key({"kind": "uniform", "low": 2, "high": 6})
    )
    assert key("exp:mean=3") == key({"kind": "exp", "mean": 3})


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("uniform:6,2", "[6, 2]"),
        ("uniform:0-4", "got 0"),
        ("uniform:2", "'uniform:LO,HI'"),
        ("exp:mean=0", "0.0"),
        ("exp:mean=fast", "'fast'"),
        ("soon", "'soon'"),
        ({"kind": "weibull", "shape": 2}, "'weibull'"),
        ({"kind": "uniform", "low": 2}, "['high']"),
        ({"kind": "uniform", "low": 2, "high": 6, "step": 2}, "['step']"),
        ({"kind": "exp"}, "['mean']"),
        (True, "True"),
    ],
)
def test_malformed_repair_specs_name_the_offending_value(spec, fragment):
    with pytest.raises(ConfigurationError) as excinfo:
        normalize_repair_spec(spec, what="'repair_delay'")
    assert fragment in str(excinfo.value)


def test_draw_repair_delay_is_a_pure_function_of_the_rng():
    uniform = normalize_repair_spec("uniform:2,6", what="x")
    exp = normalize_repair_spec("exp:mean=3", what="x")
    assert [
        draw_repair_delay(uniform, random.Random(1234)) for _ in range(3)
    ] == [5, 5, 5]
    rng = random.Random(1234)
    assert [draw_repair_delay(uniform, rng) for _ in range(5)] == [5, 2, 2, 2, 6]
    rng = random.Random(1234)
    assert [draw_repair_delay(exp, rng) for _ in range(5)] == [10, 2, 1, 7, 8]
    # Every uniform draw respects the bounds; exp floors at one round.
    rng = random.Random(99)
    assert all(2 <= draw_repair_delay(uniform, rng) <= 6 for _ in range(200))
    tiny = normalize_repair_spec("exp:mean=0.01", what="x")
    assert all(draw_repair_delay(tiny, rng) >= 1 for _ in range(50))


def test_fixed_repair_delay_never_touches_the_rng():
    # Integer specs bypass the RNG entirely, so pre-distribution
    # scenarios keep their historical draw order (and pinned metrics).
    rng = random.Random(7)
    before = rng.getstate()
    assert draw_repair_delay(8, rng) == 8
    assert rng.getstate() == before


@pytest.mark.parametrize(
    "adversary",
    [
        {
            "kind": "crash-recover",
            "count": 2,
            "repair_delay": "uniform:2,6",
            "max_action_index": 12,
        },
        {
            "kind": "crash-recover",
            "count": 2,
            "repair_delay": "exp:mean=3",
            "max_action_index": 12,
        },
        {"kind": "rack", "racks": 1, "group_size": 3, "recover_after": "uniform:3,9"},
        {
            "kind": "cascade-neighbours",
            "origins": [0],
            "p": 0.5,
            "recover_after": "exp:mean=3",
        },
    ],
)
def test_distribution_repairs_recover_deterministically(adversary):
    def run():
        return Scenario(
            protocol="D-recovery", n=48, t=6, seed=5, adversary=adversary
        ).run()

    first, second = run(), run()
    assert first.completed and second.completed
    assert first.metrics.recoveries > 0
    assert first.metrics.as_dict() == second.metrics.as_dict()


def test_distribution_repair_scenario_survives_json_round_trip():
    scenario = Scenario(
        protocol="D-recovery",
        n=48,
        t=6,
        seed=5,
        adversary={
            "kind": "crash-recover",
            "count": 2,
            "repair_delay": "uniform:2,6",
            "max_action_index": 12,
        },
    )
    clone = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    first, second = scenario.run(), clone.run()
    assert first.metrics.as_dict() == second.metrics.as_dict()
    assert first.metrics.recoveries > 0


def test_rack_repair_distribution_rejoins_whole_racks_together():
    # One draw per rack: every member of a rack rejoins in the same
    # round, whatever the distribution said for that rack.
    trace = Trace(enabled=True)
    result = run_protocol(
        "D-recovery",
        40,
        8,
        adversary=adversary_from_spec(
            {"kind": "rack", "racks": 1, "group_size": 3, "recover_after": "uniform:3,9"}
        ),
        seed=2,
        trace=trace,
    )
    assert result.completed
    recoveries = [e for e in trace.events if e.kind == "recover"]
    assert len(recoveries) == result.metrics.crashes >= 2
    assert len({e.round for e in recoveries}) == 1
