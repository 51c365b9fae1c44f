"""Equivalence of the event-indexed scheduler and a naive reference.

The engine's event index (heap + cached due rounds + live sets) must be
*observationally identical* to the seed engine's per-round rescan of all
processes: same metrics, same trace event sequence, same RNG draws.
``_ReferenceScheduler`` below re-implements exactly the seed behaviour -
it derives every round's due set and the next due round from scratch by
scanning all processes and all mailboxes - while inheriting the rest of
the engine (crashes, commits, accounting) unchanged.  Running both over
randomized seeds x protocols x adversaries and diffing the observable
outputs pins the scheduler rewrite down.
"""

from collections import Counter
from typing import List, Optional

import pytest

from repro.core.registry import build_processes
from repro.sim.adversary import (
    Cascade,
    CrashMidBroadcast,
    FixedSchedule,
    KillActive,
    KillBeforeCheckpoint,
    RandomCrashes,
    RecoveringCrashes,
)
from repro.sim.congestion import CongestionBudget
from repro.sim.crashes import CrashDirective, CrashPhase
from repro.sim.engine import Engine
from repro.sim.trace import Trace
from repro.work.tracker import WorkTracker
from tests.reference_store import ListMailboxes, ListStoreEngine


class _FilterMailboxes(ListMailboxes):
    """The seed drain: filter rather than prefix-split, so the oracle
    does not depend on the stamp-sortedness invariant either.  A
    receive budget takes the first ``receive`` ready envelopes."""

    def drain(self, pid: int, round_number: int, receive: Optional[int]) -> list:
        mailbox = self.boxes[pid]
        ready = [env for env in mailbox if env.sent_round < round_number]
        if receive is not None:
            ready = ready[:receive]
        if ready:
            taken = {id(env) for env in ready}
            self.boxes[pid] = [env for env in mailbox if id(env) not in taken]
        return ready


class _ReferenceScheduler(ListStoreEngine):
    """The seed engine's O(rounds * t) schedule computation, kept as an
    oracle: every query scans all processes and all mailbox stamps.

    Only the schedule-computation hooks are overridden, plus the
    store's drain (:class:`_FilterMailboxes`); crash handling, action
    commits and accounting are shared with the real engine, so any
    divergence is attributable to scheduling or to the delivery store:
    the reference runs on the list-per-recipient store of
    ``tests/reference_store.py``, whose boxes it scans.
    """

    store_class = _FilterMailboxes

    def _reference_due(self, process) -> Optional[int]:
        if process.retired:
            return None
        floor = self.round + 1
        due: Optional[int] = None
        mailbox = self._store.boxes[process.pid]
        if mailbox:
            earliest = min(env.sent_round for env in mailbox) + 1
            due = max(earliest, floor)
        wake = process.wake_round()
        if wake is not None:
            wake = max(wake, floor)
            due = wake if due is None else min(due, wake)
        return due

    def _next_due_round(self) -> Optional[int]:
        dues = [self._reference_due(p) for p in self.processes]
        # Deferred congestion flushes and pending rejoins are events too.
        floor = self.round + 1
        if self._deferred_heap:
            dues.append(max(self._deferred_heap[0], floor))
        if self._recoveries:
            dues.append(max(self._recoveries[0][0], floor))
        dues = [due for due in dues if due is not None]
        return min(dues) if dues else None

    def _collect_due_pids(self, round_number: int) -> List[int]:
        due_pids = []
        for process in self.processes:
            if process.retired:
                continue
            mailbox = self._store.boxes[process.pid]
            if any(env.sent_round < round_number for env in mailbox):
                due_pids.append(process.pid)
                continue
            wake = process.wake_round()
            if wake is not None and wake <= round_number:
                due_pids.append(process.pid)
        return due_pids


def _run(
    engine_cls,
    protocol,
    n,
    t,
    adversary_factory,
    seed,
    congestion=None,
    traced=True,
    **options,
):
    """Run one scenario; return its result and observable events: the
    trace (empty when ``traced`` is false), then the due set of every
    processed round (a spurious step with an empty inbox changes nothing
    a protocol emits, but shows there)."""
    due_sets = []

    class Recording(engine_cls):
        def _collect_due_pids(self, round_number):
            due_pids = super()._collect_due_pids(round_number)
            due_sets.append(("due", round_number, tuple(due_pids)))
            return due_pids

    processes = build_processes(protocol, n, t, **options)
    trace = Trace(enabled=traced)
    engine = Recording(
        processes,
        tracker=WorkTracker(n),
        adversary=adversary_factory() if adversary_factory else None,
        seed=seed,
        strict_invariants=protocol.lower() in {"a", "b", "c", "naive"},
        trace=trace,
        congestion=congestion,
    )
    result = engine.run()
    events = [(e.round, e.kind, e.pid, e.detail) for e in trace]
    return result, events + due_sets


# 7 protocol/adversary shapes x 3 seeds = 21 randomized combinations.
COMBOS = [
    ("A", 40, 8, None),
    ("A", 48, 8, lambda: RandomCrashes(4, max_action_index=12)),
    ("A", 40, 6, lambda: CrashMidBroadcast(victims=(0, 2), min_batch=2)),
    ("B", 40, 8, lambda: KillActive(5, actions_before_kill=2)),
    ("C", 24, 6, lambda: KillActive(4, actions_before_kill=3)),
    ("C-naive", 18, 6, lambda: Cascade(lead_units=6, redo_units=2)),
    ("D", 60, 8, lambda: RandomCrashes(4, max_action_index=10)),
]
SEEDS = [0, 1, 2]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "protocol,n,t,adversary_factory",
    COMBOS,
    ids=[f"{c[0]}-n{c[1]}-t{c[2]}-{'adv' if c[3] else 'noadv'}" for c in COMBOS],
)
def test_scheduler_matches_reference(protocol, n, t, adversary_factory, seed):
    fast, fast_events = _run(Engine, protocol, n, t, adversary_factory, seed)
    ref, ref_events = _run(_ReferenceScheduler, protocol, n, t, adversary_factory, seed)
    assert fast.metrics.as_dict() == ref.metrics.as_dict()
    assert fast_events == ref_events
    assert (fast.completed, fast.survivors, fast.halted) == (
        ref.completed,
        ref.survivors,
        ref.halted,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "protocol,n,t,adversary_factory",
    COMBOS,
    ids=[f"{c[0]}-n{c[1]}-t{c[2]}-{'adv' if c[3] else 'noadv'}" for c in COMBOS],
)
def test_untraced_run_matches_traced_reference(protocol, n, t, adversary_factory, seed):
    """Without a trace or a unit effect the engine commits through a
    shorter path (one ledger call per unit); its full result and due
    sets must still equal the traced reference run's."""
    fast, fast_events = _run(
        Engine, protocol, n, t, adversary_factory, seed, traced=False
    )
    ref, ref_events = _run(_ReferenceScheduler, protocol, n, t, adversary_factory, seed)
    assert fast.to_dict(full=True) == ref.to_dict(full=True)
    assert fast_events == [event for event in ref_events if event[0] == "due"]


def _overrides(cls, base) -> List[str]:
    """The methods ``cls`` itself defines that ``base`` also has: the
    hooks an oracle replaces."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("__") and hasattr(base, name)
    )


def _counting(cls, names, calls: Counter):
    """A subclass of ``cls`` whose methods ``names`` count their calls."""

    def counted(name):
        original = getattr(cls, name)

        def method(self, *args):
            calls[name] += 1
            return original(self, *args)

        return method

    return type(cls.__name__, (cls,), {name: counted(name) for name in names})


# The event index's edge cases: receive backlogs (mail that stays due
# after a step), deferred flushes (stamped at the top of a round, so due
# only from the next) and rejoins.  4 shapes x 3 seeds.
EDGE_COMBOS = [
    ("A", 40, 8, None, CongestionBudget(send=2, receive=1)),
    (
        "D",
        60,
        8,
        lambda: RandomCrashes(3, max_action_index=10),
        CongestionBudget(receive=3),
    ),
    ("D", 60, 8, None, CongestionBudget(send=3, receive=2)),
    (
        "D-recovery",
        60,
        8,
        lambda: RecoveringCrashes(3, repair_delay=3, max_action_index=10),
        None,
    ),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "protocol,n,t,adversary_factory,congestion",
    EDGE_COMBOS,
    ids=[
        f"{c[0]}-n{c[1]}-t{c[2]}-{'adv' if c[3] else 'noadv'}"
        f"-{'budget' if c[4] else 'nobudget'}"
        for c in EDGE_COMBOS
    ],
)
def test_scheduler_matches_reference_on_index_edge_cases(
    protocol, n, t, adversary_factory, congestion, seed
):
    fast, fast_events = _run(
        Engine, protocol, n, t, adversary_factory, seed, congestion=congestion
    )
    ref, ref_events = _run(
        _ReferenceScheduler,
        protocol,
        n,
        t,
        adversary_factory,
        seed,
        congestion=congestion,
    )
    assert fast.metrics.as_dict() == ref.metrics.as_dict()
    assert fast_events == ref_events
    assert (fast.completed, fast.survivors, fast.halted) == (
        ref.completed,
        ref.survivors,
        ref.halted,
    )


def test_reference_matches_on_scripted_partial_broadcast():
    """Directive-driven crash phases (incl. mid-broadcast subsets) agree."""
    directives = [
        CrashDirective(pid=1, at_round=3, phase=CrashPhase.AFTER_WORK),
        CrashDirective(pid=2, at_round=7, phase=CrashPhase.DURING_SEND),
        CrashDirective(pid=4, at_round=11, phase=CrashPhase.BEFORE_ACTION),
    ]
    for seed in range(4):
        fast, fe = _run(Engine, "A", 30, 6, lambda: FixedSchedule(directives), seed)
        ref, re_ = _run(
            _ReferenceScheduler, "A", 30, 6, lambda: FixedSchedule(directives), seed
        )
        assert fast.metrics.as_dict() == ref.metrics.as_dict()
        assert fe == re_


def test_retire_round_single_source_of_truth():
    """Regression for the seed engine's _result double-charging: retire
    rounds recorded at halt/crash time must already equal what the old
    re-recording loop would have produced."""
    for protocol, n, t, factory in [
        ("A", 40, 8, lambda: RandomCrashes(4, max_action_index=12)),
        ("B", 40, 8, lambda: KillActive(5, actions_before_kill=2)),
        ("D", 60, 8, lambda: RandomCrashes(4, max_action_index=10)),
        ("naive", 30, 6, lambda: KillBeforeCheckpoint(3)),
    ]:
        processes = build_processes(protocol, n, t)
        engine = Engine(
            processes, tracker=WorkTracker(n), adversary=factory(), seed=3
        )
        result = engine.run()
        before = result.metrics.retire_round
        # Re-apply the old loop: it must be a no-op.
        for process in engine.processes:
            if process.halt_round is not None:
                result.metrics.record_retire(process.pid, process.halt_round)
            if process.crash_round is not None:
                result.metrics.record_retire(process.pid, process.crash_round)
        assert result.metrics.retire_round == before


@pytest.mark.parametrize(
    "protocol,n,t,adversary_factory,congestion",
    [(*combo, None) for combo in COMBOS] + EDGE_COMBOS,
    ids=[f"{c[0]}-n{c[1]}-t{c[2]}-{i}" for i, c in enumerate(COMBOS + EDGE_COMBOS)],
)
def test_every_reference_hook_is_called(protocol, n, t, adversary_factory, congestion):
    """An override the engine no longer calls would leave the oracle
    comparing the engine with itself: each hook of the reference
    scheduler and of its store must run at least once per combo."""
    engine_hooks = _overrides(_ReferenceScheduler, Engine)
    store_hooks = _overrides(_FilterMailboxes, ListMailboxes)
    assert engine_hooks == ["_collect_due_pids", "_next_due_round"]
    assert store_hooks == ["drain"]
    calls: Counter = Counter()
    engine_cls = _counting(_ReferenceScheduler, engine_hooks, calls)
    engine_cls.store_class = _counting(_FilterMailboxes, store_hooks, calls)
    _run(engine_cls, protocol, n, t, adversary_factory, 0, congestion=congestion)
    assert all(calls[name] > 0 for name in engine_hooks + store_hooks), calls
