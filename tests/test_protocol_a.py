"""Protocol A: behaviour, takeover logic and Theorem 2.3 bounds."""

import math

import pytest

from repro import run_protocol
from repro.analysis import bounds
from repro.analysis.bounds import theorem_bounds
from repro.sim.adversary import (
    CrashMidBroadcast,
    FixedSchedule,
    KillActive,
    RandomCrashes,
)
from repro.sim.crashes import CrashDirective
from repro.sim.trace import Trace
from tests.conftest import adversary_battery, all_but_one_dead

N, T = 128, 16


def test_failure_free_process_zero_does_everything():
    trace = Trace(enabled=True)
    result = run_protocol("A", N, T, seed=1, trace=trace)
    assert result.completed
    assert result.metrics.work_total == N  # no redundancy without failures
    assert result.metrics.redundant_work() == 0
    assert trace.activations() == [(0, 0)]
    workers = {event.pid for event in trace.of_kind("work")}
    assert workers == {0}


def test_failure_free_message_count_structure():
    result = run_protocol("A", N, T, seed=1)
    metrics = result.metrics
    # t partial checkpoints of sqrt(t)-1 messages each.
    from repro.sim.actions import MessageKind

    assert metrics.messages_of(MessageKind.PARTIAL_CHECKPOINT) == T * (
        int(math.isqrt(T)) - 1
    )
    assert metrics.messages_of(MessageKind.FULL_CHECKPOINT) > 0


def test_takeover_after_leader_crash():
    trace = Trace(enabled=True)
    adversary = FixedSchedule([CrashDirective(pid=0, at_round=5)])
    result = run_protocol("A", N, T, adversary=adversary, seed=2, trace=trace)
    assert result.completed
    pids = [pid for _, pid in trace.activations()]
    assert pids == [0, 1]  # process 1 takes over, in order


def test_takeovers_happen_in_process_order():
    trace = Trace(enabled=True)
    adversary = KillActive(5, actions_before_kill=4)
    result = run_protocol("A", N, T, adversary=adversary, seed=3, trace=trace)
    assert result.completed
    pids = [pid for _, pid in trace.activations()]
    assert pids == sorted(pids)
    assert len(pids) == 6  # 5 killed actives + final survivor


def test_lone_survivor_redoes_unreported_work():
    result = run_protocol("A", N, T, adversary=all_but_one_dead(T), seed=4)
    assert result.completed
    assert result.survivors == 1
    # The survivor heard nothing: it performs all N units itself.
    assert result.metrics.work_by_process[T - 1] == N


def test_crash_mid_broadcast_subset_still_recovers():
    for seed in range(6):
        result = run_protocol(
            "A", N, T, adversary=CrashMidBroadcast(list(range(6))), seed=seed
        )
        assert result.completed


def test_work_never_lost_when_crash_is_after_work():
    # Crash the active right after each unit: maximum unreported work.
    adversary = KillActive(T - 1, actions_before_kill=1)
    result = run_protocol("A", N, T, adversary=adversary, seed=5)
    assert result.completed
    assert result.metrics.work_total <= theorem_bounds("A", N, T)["work"].value


@pytest.mark.parametrize("seed", range(8))
def test_theorem_2_3_bounds_random_adversary(seed):
    result = run_protocol(
        "A", N, T, adversary=RandomCrashes(T - 1, max_action_index=25), seed=seed
    )
    metrics = result.metrics
    assert result.completed
    assert metrics.work_total <= theorem_bounds("A", N, T)["work"].value
    assert metrics.messages_total <= theorem_bounds("A", N, T)["messages"].value


def test_theorem_2_3_bounds_battery():
    worst_work = worst_msgs = 0
    for factory in adversary_battery(T):
        for seed in range(3):
            result = run_protocol("A", N, T, adversary=factory(), seed=seed)
            assert result.completed
            worst_work = max(worst_work, result.metrics.work_total)
            worst_msgs = max(worst_msgs, result.metrics.messages_total)
    assert worst_work <= theorem_bounds("A", N, T)["work"].value
    assert worst_msgs <= theorem_bounds("A", N, T)["messages"].value


def test_single_active_invariant_enforced():
    # strict_invariants=True is the registry default for A; a violation
    # would raise InvariantViolation.  Run a hostile battery to probe it.
    for factory in adversary_battery(T):
        result = run_protocol("A", 64, T, adversary=factory(), seed=7)
        assert result.completed


def test_general_t_not_a_perfect_square():
    for t in (3, 7, 11, 18):
        result = run_protocol(
            "A", 50, t, adversary=RandomCrashes(t - 1, max_action_index=10), seed=1
        )
        assert result.completed


def test_n_smaller_than_t():
    result = run_protocol("A", 5, 16, adversary=KillActive(8), seed=1)
    assert result.completed
    assert result.metrics.work_total <= 3 * max(5, 16)


def test_n_zero_terminates_cleanly():
    result = run_protocol("A", 0, 9, seed=1)
    assert result.completed
    assert result.metrics.work_total == 0


def test_t_one_degenerates_to_solo_worker():
    result = run_protocol("A", 20, 1, seed=1)
    assert result.completed
    assert result.metrics.work_total == 20
    assert result.metrics.messages_total == 0


def test_epoch_offsets_all_deadlines():
    from repro.core.protocol_a import ProtocolAProcess

    process = ProtocolAProcess(2, 9, 18, epoch=100)
    assert process.activation_deadline() == 100 + process.deadlines.DD(2)


def test_rounds_within_paper_bound_modulo_slack():
    result = run_protocol("A", N, T, adversary=KillActive(T - 1), seed=9)
    slack_allowance = T * 2 * 2  # slack per deadline times t deadlines
    assert (
        result.metrics.retire_round
        <= theorem_bounds("A", N, T)["rounds"].value + slack_allowance
    )
