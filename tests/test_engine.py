"""Tests of the synchronous engine: delivery semantics, fast-forward,
crash phases, stall detection and invariant checking."""

import gc
from typing import List, Optional, Tuple

import pytest

from repro.api import Scenario
from repro.core.registry import available_protocols, build_processes, get_entry
from repro.errors import (
    AdversaryError,
    BudgetExceeded,
    InvariantViolation,
    SimulationStalled,
)
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.adversary import FixedSchedule
from repro.sim.crashes import CrashDirective, CrashPhase
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.trace import Trace
from repro.work.tracker import WorkTracker


class Script(Process):
    """Test helper: runs a fixed list of (wake, action) steps, records inbox."""

    def __init__(self, pid, t, steps, active=False):
        super().__init__(pid, t)
        self.steps = list(steps)
        self.inboxes = []
        self._active_flag = active

    @property
    def is_active(self):
        return self._active_flag and not self.retired

    def wake_round(self) -> Optional[int]:
        if self.retired or not self.steps:
            return None
        return self.steps[0][0]

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        self.inboxes.append((round_number, list(inbox)))
        if self.steps and self.steps[0][0] <= round_number:
            _, action = self.steps.pop(0)
            return action
        return Action.idle()


def ping(dst, tag="ping"):
    return Action(sends=Broadcast((dst,), (tag,), MessageKind.CONTROL))


def test_message_visible_only_after_send_round():
    sender = Script(0, 2, [(0, ping(1)), (1, Action.halting())])
    receiver = Script(1, 2, [(0, Action.idle()), (1, Action.halting())])
    engine = Engine([sender, receiver])
    engine.run()
    # Receiver acted at rounds 0 and 1; the round-0 send arrives at round 1.
    round0 = [env for r, inbox in receiver.inboxes if r == 0 for env in inbox]
    round1 = [env for r, inbox in receiver.inboxes if r == 1 for env in inbox]
    assert round0 == []
    assert len(round1) == 1 and round1[0].payload == ("ping",)


def test_mail_wakes_a_sleeping_process():
    sender = Script(0, 2, [(0, ping(1)), (0, Action.halting())])
    receiver = Script(1, 2, [(100, Action.halting())])  # nominally asleep
    engine = Engine([sender, receiver])
    engine.run()
    rounds_acted = [r for r, _ in receiver.inboxes]
    assert 1 in rounds_acted  # woken by the message well before round 100


def test_fast_forward_skips_quiescent_rounds():
    late = Script(0, 1, [(10**9, Action.halting())])
    engine = Engine([late])
    engine.run()
    assert engine.round == 10**9
    assert late.inboxes[0][0] == 10**9
    assert len(late.inboxes) == 1  # exactly one processed round


def test_work_is_tracked():
    worker = Script(0, 1, [(0, Action(work=1)), (1, Action(work=2, halt=True))])
    tracker = WorkTracker(2)
    result = Engine([worker], tracker=tracker).run()
    assert result.completed
    assert tracker.times_done(1) == 1 and tracker.times_done(2) == 1
    assert result.metrics.work_total == 2


def test_stall_raises():
    waiter = Script(0, 1, [])  # waits for mail that never comes
    with pytest.raises(SimulationStalled):
        Engine([waiter]).run()


def test_max_rounds_budget():
    late = Script(0, 1, [(10**9, Action.halting())])
    with pytest.raises(BudgetExceeded):
        Engine([late], max_rounds=1000).run()


def test_crash_before_action_suppresses_everything():
    victim = Script(0, 2, [(0, ping(1))])
    peer = Script(1, 2, [(5, Action.halting())])
    adversary = FixedSchedule([CrashDirective(pid=0, at_round=0)])
    result = Engine([victim, peer], adversary=adversary).run()
    assert victim.crashed
    assert result.metrics.messages_total == 0
    assert result.survivors == 1


def test_crash_after_work_keeps_work_drops_sends():
    victim = Script(
        0, 2, [(0, Action(work=1, sends=Broadcast((1,), ("x",), MessageKind.CONTROL)))]
    )
    peer = Script(1, 2, [(5, Action.halting())])
    adversary = FixedSchedule(
        [CrashDirective(pid=0, at_round=0, phase=CrashPhase.AFTER_WORK)]
    )
    tracker = WorkTracker(1)
    result = Engine([victim, peer], tracker=tracker, adversary=adversary).run()
    assert tracker.times_done(1) == 1
    assert result.metrics.messages_total == 0


def test_crash_during_send_delivers_chosen_subset():
    sends = Broadcast((1, 2, 3), ("bcast",), MessageKind.CONTROL)
    victim = Script(0, 4, [(0, Action(sends=sends))])
    peers = [Script(pid, 4, [(5, Action.halting())]) for pid in (1, 2, 3)]
    adversary = FixedSchedule(
        [
            CrashDirective(
                pid=0, at_round=0, phase=CrashPhase.DURING_SEND, keep=frozenset({2})
            )
        ]
    )
    result = Engine([victim] + peers, adversary=adversary).run()
    assert result.metrics.messages_total == 1
    got = [p for p in peers if any(inbox for _, inbox in p.inboxes)]
    assert [p.pid for p in got] == [2]


def test_crash_after_action_counts_everything():
    victim = Script(0, 2, [(0, Action(work=1, sends=Broadcast((1,), ("x",), MessageKind.CONTROL)))])
    peer = Script(1, 2, [(5, Action.halting())])
    adversary = FixedSchedule(
        [CrashDirective(pid=0, at_round=0, phase=CrashPhase.AFTER_ACTION)]
    )
    tracker = WorkTracker(1)
    result = Engine([victim, peer], tracker=tracker, adversary=adversary).run()
    assert victim.crashed
    assert tracker.times_done(1) == 1
    assert result.metrics.messages_total == 1


def test_crash_of_idle_process_applies_lazily():
    sleeper = Script(0, 2, [(50, ping(1)), (51, Action.halting())])
    peer = Script(1, 2, [(60, Action.halting())])
    adversary = FixedSchedule([CrashDirective(pid=0, at_round=10)])
    result = Engine([sleeper, peer], adversary=adversary).run()
    assert sleeper.crashed
    # The wake at 50 must have been suppressed: no message ever arrived.
    assert result.metrics.messages_total == 0
    assert sleeper.crash_round == 10  # accounted at the scheduled round


def test_total_failure_guard():
    procs = [Script(pid, 2, [(0, Action.idle()), (1, Action.idle())]) for pid in (0, 1)]
    adversary = FixedSchedule(
        [CrashDirective(pid=0, at_round=0), CrashDirective(pid=1, at_round=0)]
    )
    with pytest.raises(AdversaryError):
        Engine(procs, adversary=adversary).run()


def test_total_failure_allowed_when_opted_in():
    procs = [Script(pid, 2, [(0, Action.idle())]) for pid in (0, 1)]
    adversary = FixedSchedule(
        [CrashDirective(pid=0, at_round=0), CrashDirective(pid=1, at_round=0)]
    )
    tracker = WorkTracker(3)
    result = Engine(
        procs, tracker=tracker, adversary=adversary, allow_total_failure=True
    ).run()
    assert result.survivors == 0
    assert not result.completed


def test_strict_invariant_catches_two_actives():
    a = Script(0, 2, [(0, Action.idle()), (1, Action.idle())], active=True)
    b = Script(1, 2, [(0, Action.idle()), (1, Action.idle())], active=True)
    with pytest.raises(InvariantViolation):
        Engine([a, b], strict_invariants=True).run()


def test_sends_to_retired_processes_count_but_do_not_deliver():
    sender = Script(0, 2, [(2, ping(1)), (3, Action.halting())])
    early = Script(1, 2, [(0, Action.halting())])
    result = Engine([sender, early]).run()
    assert result.metrics.messages_total == 1
    assert all(not inbox for _, inbox in early.inboxes)


def test_trace_records_events():
    trace = Trace(enabled=True)
    worker = Script(0, 1, [(0, Action(work=1, halt=True))])
    Engine([worker], tracker=WorkTracker(1), trace=trace).run()
    kinds = {event.kind for event in trace}
    assert "work" in kinds and "halt" in kinds
    assert trace.first("work").pid == 0


def test_wake_index_holds_at_most_one_entry_per_process():
    """Mail lives in a bitmask, so the wake buckets only ever hold wake
    rounds: each live pid sits in at most one bucket, and the buckets
    never outnumber the processes.  The due set comes off the masks low
    bit first, so it is already in pid order."""
    n, t = 256, 64
    index_sizes: List[Tuple[int, int, int]] = []
    due_sets: List[List[int]] = []

    class Recording(Engine):
        def _collect_due_pids(self, round_number):
            due_pids = super()._collect_due_pids(round_number)
            due_sets.append(due_pids)
            return due_pids

        def _process_round(self, round_number):
            super()._process_round(round_number)
            union = 0
            for wake, mask in self._buckets.items():
                assert not union & mask, "a pid sits in two buckets"
                union |= mask
                for pid in range(t):
                    if mask >> pid & 1:
                        assert self._wake[pid] == wake
            assert union & ~self._live_mask == 0, "a retired pid is indexed"
            index_sizes.append((len(self._buckets), union.bit_count(), len(self._live)))

    crashes = FixedSchedule(
        [CrashDirective(pid=pid, at_round=10) for pid in range(16)]
    )
    result = Recording(
        build_processes("A", n, t),
        tracker=WorkTracker(n),
        adversary=crashes,
        strict_invariants=True,
    ).run()
    assert result.completed and result.metrics.crashes == 16
    assert all(buckets <= pids <= live <= t for buckets, pids, live in index_sizes)
    assert all(
        all(a < b for a, b in zip(pids, pids[1:])) for pids in due_sets
    )
    assert any(len(pids) > 1 for pids in due_sets)


def _teardown_cases():
    cases = []
    for protocol in available_protocols():
        if get_entry(protocol).engine == "async":
            failures = {"crash_times": {1: 2.0, 3: 5.0}}
        else:
            failures = {"adversary": "random:2,max_action_index=8"}
        cases.append(pytest.param(protocol, {}, id=f"{protocol}-failure-free"))
        cases.append(pytest.param(protocol, failures, id=f"{protocol}-crashes"))
    return cases


@pytest.mark.parametrize("protocol, failures", _teardown_cases())
def test_a_finished_run_leaves_no_cyclic_garbage(protocol, failures):
    """No process and no adversary keeps its engine, so a finished run
    is freed by reference count alone."""
    scenario = Scenario(protocol=protocol, n=32, t=8, seed=1, **failures)
    scenario.run()  # warm: first-use caches
    gc.collect()
    gc.disable()
    try:
        scenario.run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_step_does_not_refresh_the_whole_schedule():
    """A step re-reads only its process's wake round: in a failure-free
    Protocol A run ``_refresh_schedule`` runs once per process at
    construction and once per retirement, never per step."""
    n, t = 64, 16
    calls = []

    class Counting(Engine):
        def _refresh_schedule(self, pid):
            calls.append(pid)
            super()._refresh_schedule(pid)

    engine = Counting(build_processes("A", n, t), tracker=WorkTracker(n))
    assert sorted(calls) == list(range(t))
    result = engine.run()
    assert result.completed and result.halted == t
    assert len(calls) <= 2 * t
    assert sorted(calls) == sorted(list(range(t)) * 2)


@pytest.mark.parametrize("protocol", ["A", "B", "A-async"])
def test_processes_of_one_shape_share_their_layout(protocol):
    """Groups, subchunk plan and deadlines depend on (n, t, slack) alone
    and are frozen, so a run builds one of each, not one per process."""
    processes = build_processes(protocol, 96, 16)
    fields = ("groups", "plan") + (("deadlines",) if protocol != "A-async" else ())
    for name in fields:
        assert len({id(getattr(process, name)) for process in processes}) == 1, name
        with pytest.raises(AttributeError):
            getattr(processes[0], name).t = 1
