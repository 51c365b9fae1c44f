"""Protocol C: knowledge spreading, fault detection, Theorem 3.8 bounds."""

import math

import pytest

from repro import run_protocol
from repro.analysis import bounds
from repro.core.protocol_c import ProtocolCProcess
from repro.errors import InvariantViolation
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.adversary import Cascade, FixedSchedule, KillActive, RandomCrashes
from repro.sim.crashes import CrashDirective
from repro.sim.trace import Trace
from tests.conftest import all_but_one_dead

N, T = 32, 8
LOG_T = math.ceil(math.log2(T))


def test_failure_free_leader_does_all_real_work():
    trace = Trace(enabled=True)
    result = run_protocol("C", N, T, seed=1, trace=trace)
    assert result.completed
    workers = {event.pid for event in trace.of_kind("work")}
    # Process 0 performs all n units; stragglers may redo a small tail.
    assert 0 in workers
    assert result.metrics.work_by_process[0] == N


def test_every_process_eventually_activates_and_halts():
    trace = Trace(enabled=True)
    result = run_protocol("C", N, T, seed=1, trace=trace)
    pids = sorted(pid for _, pid in trace.activations())
    assert pids == list(range(T))  # in C everyone retires via activation
    assert result.halted == T


def test_knowledge_spreads_to_least_knowledgeable():
    # Failure-free: process 0's reports cycle through 1, 2, ..., t-1.
    trace = Trace(enabled=True)
    run_protocol("C", N, T, seed=1, trace=trace)
    ordinary = [
        event
        for event in trace.of_kind("send")
        if event.pid == 0 and event.detail[0] == MessageKind.ORDINARY.value
    ]
    first_targets = [event.detail[1] for event in ordinary[: T - 1]]
    assert first_targets == list(range(1, T))


def test_polls_get_replies_from_live_processes():
    result = run_protocol("C", N, T, seed=1)
    metrics = result.metrics
    assert metrics.messages_of(MessageKind.POLL) > 0
    assert metrics.messages_of(MessageKind.POLL_REPLY) > 0


def test_theorem_3_8_work_bound():
    for seed in range(6):
        result = run_protocol(
            "C", N, T, adversary=RandomCrashes(T - 1, max_action_index=20), seed=seed
        )
        assert result.completed
        assert result.metrics.work_total <= bounds.protocol_c_work(N, T).value


def test_theorem_3_8_message_bound():
    worst = 0
    adversaries = [
        lambda: None,
        lambda: RandomCrashes(T - 1, max_action_index=20),
        lambda: KillActive(T - 1, actions_before_kill=3),
    ]
    for factory in adversaries:
        for seed in range(4):
            result = run_protocol("C", N, T, adversary=factory(), seed=seed)
            assert result.completed
            worst = max(worst, result.metrics.messages_total)
    assert worst <= bounds.protocol_c_messages(N, T).value


def test_round_complexity_is_exponential_but_bounded():
    result = run_protocol(
        "C", N, T, adversary=KillActive(T - 1, actions_before_kill=2), seed=3
    )
    assert result.completed
    assert result.metrics.retire_round <= bounds.protocol_c_rounds(N, T).value


def test_cascade_adversary_defeated():
    """The Section 3 scenario that costs the naive algorithm Theta(t^2):
    fault detection lets C hold the n + 2t work bound through it."""
    adversary = Cascade(
        lead_units=T - 1, redo_units=1, initial_dead=list(range(T // 2 + 1, T))
    )
    result = run_protocol("C", N, T, adversary=adversary, seed=4)
    assert result.completed
    assert result.metrics.work_total <= bounds.protocol_c_work(N, T).value


def test_most_knowledgeable_takes_over():
    # Kill process 0 after a few units; the process that received the
    # last report (not necessarily pid 1) must become active next.
    trace = Trace(enabled=True)
    adversary = KillActive(1, actions_before_kill=9)
    result = run_protocol("C", N, T, adversary=adversary, seed=5, trace=trace)
    assert result.completed
    activations = trace.activations()
    second = activations[1][1]
    ordinary_targets = [
        event.detail[1]
        for event in trace.of_kind("send")
        if event.pid == 0 and event.detail[0] == MessageKind.ORDINARY.value
    ]
    assert ordinary_targets, "leader reported at least once before dying"
    assert second == ordinary_targets[-1]


def test_lone_survivor():
    result = run_protocol("C", N, T, adversary=all_but_one_dead(T), seed=6)
    assert result.completed
    assert result.survivors == 1


def test_non_power_of_two_t_padded():
    for t in (3, 5, 6, 12):
        result = run_protocol(
            "C", 24, t, adversary=RandomCrashes(t - 1, max_action_index=12), seed=2
        )
        assert result.completed


def test_t_one_runs_silent():
    result = run_protocol("C", 10, 1, seed=1)
    assert result.completed
    assert result.metrics.messages_total == 0


def test_n_zero():
    result = run_protocol("C", 0, 8, seed=1)
    assert result.completed


def test_reduced_view_never_exceeds_maximum():
    processes = [ProtocolCProcess(pid, T, N) for pid in range(T)]
    for process in processes:
        assert process.reduced_view() == 0
        assert process.deadlines.max_reduced_view == N + T - 1


def test_batched_variant_cuts_messages():
    n_big = 128
    plain = run_protocol("C", n_big, T, seed=1)
    batched = run_protocol("C-batched", n_big, T, seed=1)
    assert plain.completed and batched.completed
    assert batched.metrics.messages_total < plain.metrics.messages_total
    assert (
        batched.metrics.messages_total
        <= bounds.protocol_c_batched_messages(n_big, T).value
    )


def test_batched_variant_work_stays_linear():
    for seed in range(4):
        result = run_protocol(
            "C-batched",
            128,
            T,
            adversary=RandomCrashes(T - 1, max_action_index=15),
            seed=seed,
        )
        assert result.completed
        assert (
            result.metrics.work_total
            <= bounds.protocol_c_batched_work(128, T).value
        )


def test_failure_reports_lower_level_to_inner_group():
    # Kill half the processes before anything happens; the first active
    # process's fault detection must report failures via ordinary messages.
    dead = list(range(1, T // 2))
    adversary = FixedSchedule([CrashDirective(pid=pid, at_round=0) for pid in dead])
    result = run_protocol("C", N, T, adversary=adversary, seed=7)
    assert result.completed
    assert result.metrics.messages_of(MessageKind.ORDINARY) > 0


def _poll(src, dst, stamp):
    return Envelope(src, dst, ("are_you_alive", src), MessageKind.POLL, stamp)


def test_a_poll_in_a_round_the_process_steps_violates_lemma_3_4():
    # Pid 0's first step is due at its epoch; a poll stamped the round
    # before means another process is active at the same time.
    process = ProtocolCProcess(0, 4, 4, epoch=5)
    with pytest.raises(InvariantViolation, match="Lemma 3.4"):
        process.on_round(5, [_poll(2, 0, 4)])


def test_pollers_get_one_reply_broadcast():
    process = ProtocolCProcess(1, 4, 4)
    action = process.on_round(1, [_poll(0, 1, 0), _poll(3, 1, 0)])
    assert action == Action(sends=Broadcast((0, 3), ("alive", 1), MessageKind.POLL_REPLY))
    assert process.on_round(2, []) is Action.idle()

