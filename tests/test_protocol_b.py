"""Protocol B: go-ahead polling, preactive phase and Theorem 2.8 bounds."""

import pytest

from repro import run_protocol
from repro.analysis import bounds
from repro.analysis.bounds import theorem_bounds
from repro.sim.actions import MessageKind
from repro.sim.adversary import FixedSchedule, KillActive, RandomCrashes
from repro.sim.crashes import CrashDirective
from repro.sim.trace import Trace
from tests.conftest import adversary_battery, all_but_one_dead

N, T = 128, 16


def test_failure_free_matches_protocol_a():
    a = run_protocol("A", N, T, seed=1)
    b = run_protocol("B", N, T, seed=1)
    # Without failures the DoWork transcript is identical.
    assert b.metrics.work_total == a.metrics.work_total == N
    assert b.metrics.messages_total == a.metrics.messages_total


def test_failure_free_round_complexity_linear():
    result = run_protocol("B", N, T, seed=1)
    assert result.metrics.retire_round <= theorem_bounds("B", N, T)["rounds"].value


def test_round_complexity_beats_protocol_a_under_failures():
    # At t = 36 the gap is wide enough to pin a factor of three.
    for n, t, speedup in [(N, T, 1), (288, 36, 3)]:
        adversary_a = KillActive(t - 1, actions_before_kill=2)
        adversary_b = KillActive(t - 1, actions_before_kill=2)
        a = run_protocol("A", n, t, adversary=adversary_a, seed=2)
        b = run_protocol("B", n, t, adversary=adversary_b, seed=2)
        assert a.completed and b.completed
        # This is the whole point of Protocol B: takeovers in O(1) timeouts
        # instead of O(n + t) ones.
        assert b.metrics.retire_round * speedup < a.metrics.retire_round, (n, t)


def test_go_ahead_wakes_a_live_lower_process():
    # Crash the active processes of group 1 so a group-2 member becomes
    # preactive; its go_ahead must hand control to the *lowest* live pid.
    trace = Trace(enabled=True)
    adversary = FixedSchedule(
        [CrashDirective(pid=0, at_round=30)]
    )
    result = run_protocol("B", N, T, adversary=adversary, seed=3, trace=trace)
    assert result.completed
    pids = [pid for _, pid in trace.activations()]
    assert pids[0] == 0 and pids[1] == 1


def test_go_ahead_messages_appear_under_takeovers():
    adversary = KillActive(6, actions_before_kill=3)
    result = run_protocol("B", N, T, adversary=adversary, seed=4)
    assert result.completed
    assert result.metrics.messages_of(MessageKind.GO_AHEAD) > 0


def test_go_ahead_budget_one_per_group_pair():
    # Theorem 2.8(b): at most t * sqrt(t) go-ahead messages overall.
    for seed in range(5):
        result = run_protocol(
            "B", N, T, adversary=RandomCrashes(T - 1, max_action_index=20), seed=seed
        )
        assert result.metrics.messages_of(MessageKind.GO_AHEAD) <= T * 4


@pytest.mark.parametrize("seed", range(8))
def test_theorem_2_8_bounds_random(seed):
    result = run_protocol(
        "B", N, T, adversary=RandomCrashes(T - 1, max_action_index=25), seed=seed
    )
    assert result.completed
    assert result.metrics.work_total <= theorem_bounds("B", N, T)["work"].value
    assert result.metrics.messages_total <= theorem_bounds("B", N, T)["messages"].value


def test_theorem_2_8_battery_worst_case():
    worst = {"work": 0, "msgs": 0, "rounds": 0}
    for factory in adversary_battery(T):
        for seed in range(3):
            result = run_protocol("B", N, T, adversary=factory(), seed=seed)
            assert result.completed
            worst["work"] = max(worst["work"], result.metrics.work_total)
            worst["msgs"] = max(worst["msgs"], result.metrics.messages_total)
            worst["rounds"] = max(worst["rounds"], result.metrics.retire_round)
    assert worst["work"] <= theorem_bounds("B", N, T)["work"].value
    assert worst["msgs"] <= theorem_bounds("B", N, T)["messages"].value
    # Rounds: paper bound plus the implementation's slack contribution
    # (slack enters PTO, which is paid O(t) times along a takeover chain).
    from repro.core.deadlines import ProtocolBDeadlines

    dl = ProtocolBDeadlines(n=N, t=T)
    implementation_bound = N + 3 * T + dl.slack + dl.TT(T - 1, 0)
    assert worst["rounds"] <= implementation_bound


def test_lone_survivor():
    result = run_protocol("B", N, T, adversary=all_but_one_dead(T), seed=5)
    assert result.completed
    assert result.metrics.work_by_process[T - 1] == N


def test_preactive_process_returns_passive_on_ordinary_message():
    # Crash 0 late so that 1 becomes preactive, then let 1's go_ahead chain
    # reactivate work; every later process that got as far as preactive
    # must settle back down without becoming active.
    trace = Trace(enabled=True)
    adversary = FixedSchedule([CrashDirective(pid=0, at_round=40)])
    result = run_protocol("B", N, T, adversary=adversary, seed=6, trace=trace)
    assert result.completed
    assert len(trace.activations()) == 2  # nobody else ever activated


def test_general_t_shapes():
    for t in (3, 7, 12, 20):
        result = run_protocol(
            "B", 60, t, adversary=RandomCrashes(t - 1, max_action_index=15), seed=2
        )
        assert result.completed


def test_small_and_degenerate_inputs():
    assert run_protocol("B", 0, 8, seed=1).completed
    assert run_protocol("B", 5, 16, seed=1).completed
    solo = run_protocol("B", 12, 1, seed=1)
    assert solo.completed and solo.metrics.messages_total == 0


def test_crash_during_goahead_poll_timeout_advances():
    # Kill 0; then kill 1 the moment it is woken by a go_ahead (before it
    # can broadcast), forcing the preactive process to poll onward.
    directives = [
        CrashDirective(pid=0, at_round=20),
        CrashDirective(pid=1, at_round=21),
        CrashDirective(pid=2, at_round=22),
    ]
    result = run_protocol("B", N, T, adversary=FixedSchedule(directives), seed=7)
    assert result.completed
