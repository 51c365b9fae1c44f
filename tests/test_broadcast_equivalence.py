"""Packed Broadcast fan-out must be observationally identical to
committing every copy on its own, on both engines.

A protocol's one shared-payload :class:`Broadcast` per round must
behave *bit-identically* to the same broadcast expanded into per-copy
sends and committed copy by copy - same metrics, same payload-level
traces, same RNG draws (adversary victim picks, crash-mid-broadcast
subset draws, async delay draws), same outcome.

Two oracles commit copy by copy:

* ``_ExpandedEngine`` (sync) overrides ``_post_batch`` with a per-copy
  commit: it expands each committed broadcast into local ``Send``
  copies (one kind-count bump and one ``Envelope`` per live recipient)
  on the list-per-recipient reference store of
  ``tests/reference_store.py`` - so the row store and the one-post
  broadcast commit never touch the reference execution;
* ``tests/reference_async.py``'s ``PerCopyAsyncEngine`` expands every
  broadcast into per-copy sends, each one delay draw and one heap
  event; ``tests/test_async_equivalence.py`` runs it against the async
  engine.

Running fast vs oracle over seeds x protocols x adversaries (including
crash-mid-broadcast partial delivery) pins the rewrite the way
``test_scheduler_equivalence.py`` pinned the scheduler and
``test_bitset_equivalence.py`` pinned the bitsets.
"""

from typing import Any, Dict, NamedTuple

import pytest

from repro.core.registry import build_processes
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.adversary import (
    Cascade,
    CrashMidBroadcast,
    FixedSchedule,
    KillActive,
    RandomCrashes,
    StaggeredWorkKills,
)
from repro.sim.async_engine import AsyncEngine, AsyncProcess, fixed_delays
from repro.sim.bitset import FrozenIntBitset, IntBitset
from repro.sim.columnar import RowInbox, Span
from repro.sim.congestion import CongestionBudget
from repro.sim.crashes import CrashDirective, CrashPhase
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.trace import Trace
from repro.work.tracker import WorkTracker
from tests.reference_store import ListStoreEngine

# =====================================================================
# The synchronous oracle: a per-copy commit
# =====================================================================


class Send(NamedTuple):
    """One point-to-point copy of a broadcast, as the oracle commits it."""

    dst: int
    payload: Any
    kind: MessageKind


class _ExpandedEngine(ListStoreEngine):
    """A per-copy commit, kept as an oracle: each broadcast is expanded
    into ascending ``Send`` copies, then one kind-count bump and one
    :class:`Envelope` tuple per copy, no rows, no shared envelopes."""

    def _post_batch(self, src: int, bcast: Broadcast, round_number: int) -> None:
        sends = [Send(dst, bcast.payload, bcast.kind) for dst in bcast.recipients]
        kind_counts: Dict[MessageKind, int] = {}
        for send in sends:
            kind = send.kind
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
        for kind, count in kind_counts.items():
            self.metrics.record_sends(src, kind, count, round_number)
        trace = self.trace
        if trace.enabled:
            for send in sends:
                trace.emit(
                    round_number, "send", src, (send.kind.value, send.dst, send.payload)
                )
        for send in sends:
            dst = send.dst
            if 0 <= dst < self.t and not self.processes[dst].retired:
                self._store.post_p2p(src, dst, send.payload, send.kind, round_number)
                # One mail note per copy (the engine notes a whole
                # broadcast's recipient mask at once).
                self._posted |= 1 << dst


def _build(protocol: str, n: int, t: int):
    if protocol == "D-dynamic":
        return build_processes(
            protocol, n, t, schedule="arrivals:0x%d" % n, cycle_length=12
        )
    return build_processes(protocol, n, t)


def _run_sync(engine_cls, protocol, n, t, adversary_factory, seed):
    processes = _build(protocol, n, t)
    trace = Trace(enabled=True)
    engine = engine_cls(
        processes,
        tracker=WorkTracker(n),
        adversary=adversary_factory() if adversary_factory else None,
        seed=seed,
        strict_invariants=protocol.lower() in {"a", "b", "c", "naive"},
        trace=trace,
    )
    result = engine.run()
    events = [(e.round, e.kind, e.pid, e.detail) for e in trace]
    return result, events


def _assert_sync_equivalent(fast, fast_events, ref, ref_events):
    assert fast.metrics.as_dict() == ref.metrics.as_dict()
    assert len(fast_events) == len(ref_events)
    # Payload-level diff: detail tuples carry the wire payloads.
    for fast_event, ref_event in zip(fast_events, ref_events):
        assert fast_event == ref_event, (fast_event, ref_event)
    assert (fast.completed, fast.survivors, fast.halted) == (
        ref.completed,
        ref.survivors,
        ref.halted,
    )


# 10 protocol/adversary shapes x 3 seeds = 30 synchronous combinations.
SYNC_COMBOS = [
    ("A", 40, 8, None),
    ("A", 48, 8, lambda: RandomCrashes(4, max_action_index=12)),
    ("A", 40, 6, lambda: CrashMidBroadcast(victims=(0, 2), min_batch=2)),
    ("B", 40, 8, lambda: KillActive(5, actions_before_kill=2)),
    ("C", 24, 6, lambda: KillActive(4, actions_before_kill=3)),
    ("C-naive", 18, 6, lambda: Cascade(lead_units=6, redo_units=2)),
    ("D", 96, 8, lambda: RandomCrashes(4, max_action_index=10)),
    ("D", 96, 8, lambda: CrashMidBroadcast(victims=(1, 4), min_batch=3)),
    (
        "D",
        96,
        8,
        lambda: FixedSchedule(
            [
                CrashDirective(pid=1, at_round=5, phase=CrashPhase.DURING_SEND),
                CrashDirective(pid=4, at_round=13, phase=CrashPhase.AFTER_WORK),
            ]
        ),
    ),
    ("D-dynamic", 48, 8, lambda: StaggeredWorkKills.plan([(2, 1), (5, 2)])),
]
SEEDS = [0, 1, 2]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "protocol,n,t,adversary_factory",
    SYNC_COMBOS,
    ids=[
        f"{c[0]}-n{c[1]}-t{c[2]}-{'adv' if c[3] else 'noadv'}-{i}"
        for i, c in enumerate(SYNC_COMBOS)
    ],
)
def test_packed_broadcasts_match_expanded_reference(
    protocol, n, t, adversary_factory, seed
):
    fast, fast_events = _run_sync(Engine, protocol, n, t, adversary_factory, seed)
    ref, ref_events = _run_sync(_ExpandedEngine, protocol, n, t, adversary_factory, seed)
    _assert_sync_equivalent(fast, fast_events, ref, ref_events)


def test_expanded_reference_commits_through_its_hook():
    """The oracle replaces ``_post_batch``; if the engine stopped calling
    it, the comparison above would pit the engine against itself."""
    calls = []

    class Counting(_ExpandedEngine):
        def _post_batch(self, src, sends, round_number):
            calls.append(src)
            super()._post_batch(src, sends, round_number)

    for protocol, n, t, adversary_factory in SYNC_COMBOS:
        calls.clear()
        _run_sync(Counting, protocol, n, t, adversary_factory, 0)
        assert calls, protocol


# =====================================================================
# Crash-mid-broadcast stays a recipients subset (never re-expanded)
# =====================================================================


def test_a_frozen_recipient_mask_is_kept_as_given():
    """A frozen mask cannot change under the broadcast, so it is kept,
    not copied; any other recipients spelling is frozen once."""
    mask = FrozenIntBitset.from_iterable([1, 3, 5])
    assert Broadcast(mask, ("payload",), MessageKind.AGREEMENT).recipients is mask
    working = IntBitset.from_iterable([1, 3, 5])
    kept = Broadcast(working, ("payload",), MessageKind.AGREEMENT).recipients
    working.add(7)
    assert type(kept) is FrozenIntBitset and kept == {1, 3, 5}


def test_censored_broadcast_stays_packed_subset():
    bcast = Broadcast(range(1, 7), ("payload",), MessageKind.AGREEMENT)
    directive = CrashDirective(
        pid=0, at_round=0, phase=CrashPhase.DURING_SEND, keep=frozenset({2, 4, 9})
    )
    import random

    survived = directive.censor(Action(work=3, sends=bcast), random.Random(1))
    assert survived.work == 3
    assert isinstance(survived.sends, Broadcast)
    assert survived.sends.payload is bcast.payload  # shared, not re-allocated
    assert survived.sends.dsts() == (2, 4)


# =====================================================================
# What a recipient is handed
# =====================================================================


class _Script(Process):
    """Emits a fixed list of (round, Action) pairs."""

    def __init__(self, pid, t, script):
        super().__init__(pid, t)
        self.script = list(script)

    def wake_round(self):
        if self.retired or not self.script:
            return None
        return self.script[0][0]

    def on_round(self, round_number, inbox):
        if self.script and self.script[0][0] <= round_number:
            return self.script.pop(0)[1]
        return Action.idle()


def test_delivered_envelopes_unpack_as_tuples():
    """A one-recipient broadcast's recipient receives an Envelope tuple
    it can unpack."""
    seen = []

    class _Unpacker(_Script):
        def on_round(self, round_number, inbox):
            for envelope in inbox:
                seen.append(tuple(envelope))
            return super().on_round(round_number, inbox)

    sender = _Script(
        0,
        2,
        [
            (0, Action(sends=Broadcast((1,), ("p2p",), MessageKind.CONTROL))),
            (1, Action.halting()),
        ],
    )
    receiver = _Unpacker(1, 2, [(3, Action.halting())])
    Engine([sender, receiver], seed=1).run()
    assert seen == [(0, 1, ("p2p",), MessageKind.CONTROL, 0)]


def _inbox_shape(inbox) -> str:
    """How the store answered a drain: a plain list of lane mail, or a
    row inbox of rows only or of rows merged with lane mail."""
    if type(inbox) is not RowInbox:
        return "lanes"
    return "rows" if all(type(item) is Span for item in inbox.items) else "merged"


@pytest.mark.parametrize("receive", [None, 2])
def test_every_delivered_message_is_the_recipients_own_envelope(receive):
    """Lane mail, row-only drains and drains merging rows with lane mail
    all hand a process ``Envelope`` tuples addressed to it.  Under the
    receive budget, pid 3's three messages (a row and two narrow
    broadcasts' lane copies) are a merge cut short."""
    t = 8  # rows from a live fan-out of min(WIDE_FANOUT, t // 2) = 4
    scripts = {
        0: [(0, Action(sends=Broadcast(range(1, t), ("row",), MessageKind.CONTROL)))],
        1: [(0, Action(sends=Broadcast((0, 3), ("p2p",), MessageKind.ORDINARY)))],
        2: [(0, Action(sends=Broadcast((0, 3), ("narrow",), MessageKind.CONTROL)))],
        3: [(1, Action(sends=Broadcast((4, 5, 6, 7), ("late row",), MessageKind.CONTROL)))],
    }
    shapes = set()
    delivered = []

    class _Checker(_Script):
        def on_round(self, round_number, inbox):
            if inbox:
                shapes.add(_inbox_shape(inbox))
            for envelope in inbox:
                assert type(envelope) is Envelope
                assert envelope.dst == self.pid
                delivered.append(envelope)
            return super().on_round(round_number, inbox)

    processes = [
        _Checker(pid, t, scripts.get(pid, []) + [(9, Action.halting())]) for pid in range(t)
    ]
    congestion = CongestionBudget(receive=receive) if receive is not None else None
    Engine(processes, seed=3, congestion=congestion).run()
    assert shapes == {"lanes", "rows", "merged"}
    assert sorted((e.src, e.dst, e.payload[0], e.sent_round) for e in delivered) == sorted(
        [(0, dst, "row", 0) for dst in range(1, t)]
        + [(1, 0, "p2p", 0), (1, 3, "p2p", 0), (2, 0, "narrow", 0), (2, 3, "narrow", 0)]
        + [(3, dst, "late row", 1) for dst in (4, 5, 6, 7)]
    )


# =====================================================================
# The asynchronous engine: one heap event per due instant
# =====================================================================
#
# The per-copy async reference (``tests/reference_async.py``) is compared
# with the engine, packed broadcasts included, in
# ``tests/test_async_equivalence.py``.


def test_async_broadcast_schedules_one_event_per_due_instant():
    """Under a deterministic delay model a t-1-recipient broadcast must
    enter the heap as a single deliver_bcast event, not t-1 events."""
    pushed = []

    class _SpyEngine(AsyncEngine):
        def _broadcast(self, src, bcast):
            before = len(self._heap)
            super()._broadcast(src, bcast)
            pushed.append(len(self._heap) - before)

    class Gossip(AsyncProcess):
        def on_start(self, ctx):
            others = [pid for pid in range(self.t) if pid != self.pid]
            ctx.broadcast(Broadcast(others, ("gen", self.pid), MessageKind.CONTROL))
            ctx.wake_in(5.0, "stop")

        def on_message(self, ctx, src, payload, kind):
            pass

        def on_wake(self, ctx, tag):
            ctx.halt()

    t = 8
    engine = _SpyEngine([Gossip(pid, t) for pid in range(t)], seed=1, delay_model=fixed_delays(1.0))
    result = engine.run()
    assert result.halted == t
    assert engine.metrics.messages_total == t * (t - 1)
    assert pushed == [1] * t  # one heap event per broadcast, not t-1
