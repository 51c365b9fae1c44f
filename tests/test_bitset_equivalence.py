"""Bitset-backed Protocol D must be observationally identical to sets.

``_ReferenceProtocolD`` / ``_ReferenceDynamicD`` below are verbatim
copies of the pre-bitset implementations (Python ``set`` state,
``frozenset`` payloads).  Running both implementations over randomized
seeds x adversaries under the same engine and diffing every observable
output - metrics, full trace (including wire payloads: a frozen bitset
compares equal to the frozenset with the same members), run outcome -
pins the bitset refactor down exactly the way
``tests/test_scheduler_equivalence.py`` pinned the scheduler rewrite.
"""

import math
from typing import Dict, List, Optional

import pytest

from repro.core.protocol_a import ProtocolAProcess
from repro.core.protocol_d import build_protocol_d
from repro.core.protocol_d_dynamic import build_dynamic_protocol_d, uniform_arrivals
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.adversary import (
    CrashMidBroadcast,
    FixedSchedule,
    RandomCrashes,
    StaggeredWorkKills,
)
from repro.sim.crashes import CrashDirective, CrashPhase
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.trace import Trace
from repro.work.tracker import WorkTracker

_WORK = "work"
_AGREE = "agree"
_REVERT = "revert"
_INNER_KINDS = (MessageKind.PARTIAL_CHECKPOINT, MessageKind.FULL_CHECKPOINT)


class _ReferenceProtocolD(Process):
    """The pre-bitset Protocol D process: ``set`` state, ``frozenset``
    payloads, kept as an oracle."""

    def __init__(self, pid, t, n, *, revert_threshold=0.5, slack=2):
        super().__init__(pid, t)
        self.n = n
        self.revert_threshold = revert_threshold
        self.slack = slack
        self.S = set(range(1, n + 1))
        self.T = set(range(t))
        self.phase_index = 0
        self.reverted = False
        self._share: List[int] = []
        self._work_start = 0
        self._work_done_count = 0
        self._agree_entry = 0
        self._U = set()
        self._u_snapshot = set()
        self._round_var = 0
        self._agree_done = False
        self._T_prev = set(self.T)
        self._buffer: List[Envelope] = []
        self._inner: Optional[ProtocolAProcess] = None
        self._revert_members: List[int] = []
        self._revert_units: List[int] = []
        self.state = _WORK
        self._setup_work_phase(start_round=0)

    def _setup_work_phase(self, start_round):
        self.state = _WORK
        self.phase_index += 1
        self._T_prev = set(self.T)
        members = sorted(self.T)
        units = sorted(self.S)
        per_process = math.ceil(len(units) / len(members)) if members else 0
        try:
            rank = members.index(self.pid)
        except ValueError:
            rank = None
        if rank is None or per_process == 0:
            self._share = []
        else:
            self._share = units[rank * per_process : (rank + 1) * per_process]
        self._work_start = start_round
        self._work_done_count = 0
        self._agree_entry = start_round + per_process
        self.S -= set(self._share)

    def wake_round(self):
        if self.retired:
            return None
        if self.state == _REVERT:
            assert self._inner is not None
            return self._inner.wake_round()
        if self.state == _WORK:
            if self._work_done_count < len(self._share):
                return self._work_start + self._work_done_count
            return self._agree_entry
        return 0

    def on_round(self, round_number, inbox):
        if self.state == _REVERT:
            return self._revert_round(round_number, inbox)
        self._buffer.extend(
            env
            for env in inbox
            if env.kind is MessageKind.AGREEMENT
            and env.payload[0] >= self.phase_index
        )
        if self.state == _WORK:
            if round_number < self._agree_entry:
                return self._work_round(round_number)
            return self._enter_agree(round_number)
        return self._agree_round(round_number)

    def _work_round(self, round_number):
        index = round_number - self._work_start
        if index < len(self._share) and index == self._work_done_count:
            self._work_done_count += 1
            return Action(work=self._share[index])
        return Action.idle()

    def _enter_agree(self, round_number):
        self.state = _AGREE
        self._U = set(self.T)
        self.T = {self.pid}
        self._agree_done = False
        self._round_var = 1 if self.phase_index == 1 else 0
        self._u_snapshot = set(self._U)
        return Action(sends=self._agree_broadcast(done=False))

    def _agree_broadcast(self, done):
        payload = (self.phase_index, frozenset(self.S), frozenset(self.T), done)
        recipients = [pid for pid in sorted(self._U) if pid != self.pid]
        return Broadcast(recipients, payload, MessageKind.AGREEMENT)

    def _agree_round(self, round_number):
        received: Dict[int, tuple] = {}
        for envelope in sorted(self._buffer, key=lambda env: env.sent_round):
            payload = envelope.payload
            if payload[0] != self.phase_index:
                continue
            previous = received.get(envelope.src)
            if previous is None or payload[3] or not previous[3]:
                received[envelope.src] = payload
        self._buffer.clear()
        for pid in sorted(self._u_snapshot - {self.pid}):
            payload = received.get(pid)
            if payload is not None and not payload[3]:
                self.S &= payload[1]
                self.T |= payload[2]
        for pid in sorted(received):
            payload = received[pid]
            if payload[3]:
                self.S = set(payload[1])
                self.T = set(payload[2])
                self._agree_done = True
        if self._round_var >= 1:
            for pid in self._u_snapshot - {self.pid}:
                if pid not in received:
                    self._U.discard(pid)
        if (
            not self._agree_done
            and self._round_var >= 1
            and self._U == self._u_snapshot
        ):
            self._agree_done = True
        self._round_var += 1
        if self._agree_done:
            sends = self._agree_broadcast(done=True)
            return self._finish_phase(round_number, sends)
        self._u_snapshot = set(self._U)
        return Action(sends=self._agree_broadcast(done=False))

    def _finish_phase(self, round_number, sends):
        threshold = self.revert_threshold * len(self._T_prev)
        if self.S and len(self.T) < threshold:
            self._enter_revert(round_number + 1)
            return Action(sends=sends)
        if not self.S:
            return Action(sends=sends, halt=True)
        self._setup_work_phase(start_round=round_number + 1)
        return Action(sends=sends)

    def _enter_revert(self, start_round):
        self.state = _REVERT
        self.reverted = True
        self._revert_members = sorted(self.T)
        self._revert_units = sorted(self.S)
        rank = self._revert_members.index(self.pid)
        self._inner = ProtocolAProcess(
            rank,
            len(self._revert_members),
            len(self._revert_units),
            epoch=start_round,
            slack=self.slack + 4,
        )

    def _revert_round(self, round_number, inbox):
        assert self._inner is not None
        rank_of = {pid: rank for rank, pid in enumerate(self._revert_members)}
        translated = [
            Envelope(
                src=rank_of[env.src],
                dst=rank_of[self.pid],
                payload=env.payload,
                kind=env.kind,
                sent_round=env.sent_round,
            )
            for env in inbox
            if env.kind in _INNER_KINDS and env.src in rank_of
        ]
        action = self._inner.on_round(round_number, translated)
        work = (
            self._revert_units[action.work - 1] if action.work is not None else None
        )
        sends = action.sends
        if sends is not None:
            sends = Broadcast(
                [self._revert_members[dst] for dst in sends.recipients],
                sends.payload,
                sends.kind,
            )
        return Action(work=work, sends=sends, halt=action.halt)


class _ReferenceDynamicD(Process):
    """The pre-bitset dynamic-workload Protocol D process."""

    def __init__(self, pid, t, schedule, *, cycle_length=16):
        super().__init__(pid, t)
        self.schedule = schedule
        self.cycle_length = cycle_length
        self._pending_arrivals = sorted(schedule.at_site(pid))
        self.known = set()
        self._arrived_buffer = set()
        self.done = set()
        self.live = set(range(t))
        self.state = _AGREE
        self._cycle_start = 0
        self._first_cycle = True
        self._U = set(self.live)
        self._u_snapshot = set()
        self._round_var = 0
        self._agree_done = False
        self._broadcast_pending = True
        self._share: List[int] = []
        self._share_index = 0

    def _absorb_arrivals(self, round_number):
        while self._pending_arrivals and self._pending_arrivals[0][0] <= round_number:
            _, unit = self._pending_arrivals.pop(0)
            self._arrived_buffer.add(unit)

    def wake_round(self):
        if self.retired:
            return None
        if self.state == _AGREE:
            return 0
        if self._share_index < len(self._share):
            return 0
        next_points = [self._cycle_start + self.cycle_length]
        if self._pending_arrivals:
            next_points.append(self._pending_arrivals[0][0])
        return min(next_points)

    def on_round(self, round_number, inbox):
        self._absorb_arrivals(round_number)
        if self.state == _WORK and round_number >= self._cycle_start + self.cycle_length:
            self._enter_agree(round_number)
        if self.state == _AGREE:
            return self._agree_round(round_number, inbox)
        return self._work_round()

    def _enter_agree(self, round_number):
        self.state = _AGREE
        self._cycle_start = round_number
        self._U = set(self.live)
        self.live = {self.pid}
        self._agree_done = False
        self._round_var = 1 if self._first_cycle else 0
        self._first_cycle = False
        self._broadcast_pending = True

    def _payload(self, done_flag):
        return (
            self._cycle_start,
            frozenset(self.known),
            frozenset(self.done),
            frozenset(self.live),
            done_flag,
        )

    def _agree_broadcast(self, done_flag):
        recipients = [pid for pid in sorted(self._U) if pid != self.pid]
        return Broadcast(recipients, self._payload(done_flag), MessageKind.AGREEMENT)

    def _agree_round(self, round_number, inbox):
        if self._broadcast_pending:
            self.known |= self._arrived_buffer
            self._arrived_buffer.clear()
            self._broadcast_pending = False
            self._u_snapshot = set(self._U)
            return Action(sends=self._agree_broadcast(False))
        received: Dict[int, tuple] = {}
        for envelope in sorted(inbox, key=lambda env: env.sent_round):
            if envelope.kind is not MessageKind.AGREEMENT:
                continue
            payload = envelope.payload
            if payload[0] != self._cycle_start:
                continue
            previous = received.get(envelope.src)
            if previous is None or payload[4] or not previous[4]:
                received[envelope.src] = payload
        for pid in sorted(self._u_snapshot - {self.pid}):
            payload = received.get(pid)
            if payload is not None and not payload[4]:
                self.known |= payload[1]
                self.done |= payload[2]
                self.live |= payload[3]
        adopted = None
        for pid in sorted(received):
            payload = received[pid]
            if payload[4]:
                adopted = payload
        if adopted is not None:
            self.known = set(adopted[1])
            self.done = set(adopted[2])
            self.live = set(adopted[3])
            self._agree_done = True
        if self._round_var >= 1:
            for pid in self._u_snapshot - {self.pid}:
                if pid not in received:
                    self._U.discard(pid)
        if (
            not self._agree_done
            and self._round_var >= 1
            and self._U == self._u_snapshot
        ):
            self._agree_done = True
        self._round_var += 1
        if self._agree_done:
            sends = self._agree_broadcast(True)
            return self._finish_agreement(round_number, sends)
        self._u_snapshot = set(self._U)
        return Action(sends=self._agree_broadcast(False))

    def _finish_agreement(self, round_number, sends):
        outstanding = sorted(self.known - self.done)
        no_more_arrivals = round_number >= self.schedule.horizon
        if (
            not outstanding
            and no_more_arrivals
            and not self._pending_arrivals
            and not self._arrived_buffer
        ):
            return Action(sends=sends, halt=True)
        members = sorted(self.live)
        per_process = math.ceil(len(outstanding) / len(members)) if members else 0
        try:
            rank = members.index(self.pid)
        except ValueError:
            rank = None
        if rank is None or per_process == 0:
            self._share = []
        else:
            self._share = outstanding[rank * per_process : (rank + 1) * per_process]
        self._share_index = 0
        self.state = _WORK
        return Action(sends=sends)

    def _work_round(self):
        if self._share_index < len(self._share):
            unit = self._share[self._share_index]
            self._share_index += 1
            self.done.add(unit)
            return Action(work=unit)
        return Action.idle()


# ---- the diff harness ------------------------------------------------------


def _run(processes, n, adversary_factory, seed):
    trace = Trace(enabled=True)
    engine = Engine(
        processes,
        tracker=WorkTracker(n),
        adversary=adversary_factory() if adversary_factory else None,
        seed=seed,
        trace=trace,
    )
    result = engine.run()
    events = [(e.round, e.kind, e.pid, e.detail) for e in trace]
    return result, events


def _assert_equivalent(fast, fast_events, ref, ref_events):
    assert fast.metrics.as_dict() == ref.metrics.as_dict()
    assert len(fast_events) == len(ref_events)
    # Payload-level diff: FrozenIntBitset == frozenset holds memberwise.
    for fast_event, ref_event in zip(fast_events, ref_events):
        assert fast_event == ref_event, (fast_event, ref_event)
    assert (fast.completed, fast.survivors, fast.halted) == (
        ref.completed,
        ref.survivors,
        ref.halted,
    )


# 4 adversary shapes x 3 seeds = 12 static-D combinations.
STATIC_COMBOS = [
    ("none", None),
    ("random", lambda: RandomCrashes(5, max_action_index=10)),
    ("staggered", lambda: StaggeredWorkKills.plan([(1, 1), (3, 2), (5, 1)])),
    ("midcast", lambda: CrashMidBroadcast(victims=(0, 2), min_batch=2)),
]
SEEDS = [0, 1, 2]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name,adversary_factory", STATIC_COMBOS, ids=[c[0] for c in STATIC_COMBOS]
)
def test_protocol_d_bitset_matches_set_reference(name, adversary_factory, seed):
    n, t = 96, 8
    fast, fast_events = _run(build_protocol_d(n, t), n, adversary_factory, seed)
    ref, ref_events = _run(
        [_ReferenceProtocolD(pid, t, n) for pid in range(t)],
        n,
        adversary_factory,
        seed,
    )
    _assert_equivalent(fast, fast_events, ref, ref_events)


def test_protocol_d_reversion_path_matches_reference():
    """Heavy kills force the Protocol A reversion in both implementations."""
    n, t = 64, 8

    def factory():
        return StaggeredWorkKills.plan([(pid, 1) for pid in range(6)])

    for seed in range(3):
        fast_procs = build_protocol_d(n, t)
        fast, fast_events = _run(fast_procs, n, factory, seed)
        ref, ref_events = _run(
            [_ReferenceProtocolD(pid, t, n) for pid in range(t)], n, factory, seed
        )
        assert any(p.reverted for p in fast_procs)
        _assert_equivalent(fast, fast_events, ref, ref_events)


def test_protocol_d_scripted_mid_broadcast_matches_reference():
    directives = [
        CrashDirective(pid=1, at_round=5, phase=CrashPhase.DURING_SEND),
        CrashDirective(pid=4, at_round=13, phase=CrashPhase.AFTER_WORK),
    ]
    n, t = 96, 8

    def factory():
        return FixedSchedule(directives)

    for seed in range(3):
        fast, fast_events = _run(build_protocol_d(n, t), n, factory, seed)
        ref, ref_events = _run(
            [_ReferenceProtocolD(pid, t, n) for pid in range(t)], n, factory, seed
        )
        _assert_equivalent(fast, fast_events, ref, ref_events)


# 2 adversary shapes x 3 seeds = 6 dynamic-D combinations.
DYNAMIC_COMBOS = [
    ("random", lambda: RandomCrashes(3, max_action_index=15)),
    ("staggered", lambda: StaggeredWorkKills.plan([(2, 1)])),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name,adversary_factory", DYNAMIC_COMBOS, ids=[c[0] for c in DYNAMIC_COMBOS]
)
def test_dynamic_d_bitset_matches_set_reference(name, adversary_factory, seed):
    n, t, cycle = 48, 8, 12
    schedule = uniform_arrivals(n, t, every=2)
    fast, fast_events = _run(
        build_dynamic_protocol_d(t, schedule, cycle_length=cycle),
        n,
        adversary_factory,
        seed,
    )
    ref, ref_events = _run(
        [_ReferenceDynamicD(pid, t, schedule, cycle_length=cycle) for pid in range(t)],
        n,
        adversary_factory,
        seed,
    )
    _assert_equivalent(fast, fast_events, ref, ref_events)


def test_final_state_matches_reference_memberwise():
    """Terminal protocol state agrees memberwise, not just observably."""
    n, t = 96, 8

    def factory():
        return RandomCrashes(4, max_action_index=12)

    fast_procs = build_protocol_d(n, t)
    ref_procs = [_ReferenceProtocolD(pid, t, n) for pid in range(t)]
    _run(fast_procs, n, factory, seed=7)
    _run(ref_procs, n, factory, seed=7)
    for fast_proc, ref_proc in zip(fast_procs, ref_procs):
        assert fast_proc.S == ref_proc.S
        assert fast_proc.T == ref_proc.T
        assert fast_proc.crashed == ref_proc.crashed
        assert fast_proc.halted == ref_proc.halted
