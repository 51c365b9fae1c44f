"""Grouped broadcast delivery on the async engine must be observationally
identical to scheduling every copy on its own.

The reference is ``tests/reference_async.py``'s ``PerCopyAsyncEngine``:
the engine with one ``deliver`` heap event per message copy and every
broadcast expanded into its per-copy sends.  Both engines share RNG
derivation, metrics, crash and failure-detector handling, so any
divergence is attributable to the grouping.  Runs are diffed on
metrics, an ordered log of every work execution, a payload-level log of
every message, wake and suspicion, and the run outcome, across crash
patterns x delay models x seeds - including fixed (deterministic)
delays, where many copies share a due instant.  The randomized version
of this diff is ``tests/test_async_differential_fuzz.py``.
"""

import heapq

import pytest

from repro.core.protocol_a_async import build_async_protocol_a
from repro.sim.actions import Broadcast, MessageKind
from repro.sim.async_engine import (
    AsyncEngine,
    AsyncProcess,
    _Event,
    fixed_delays,
    uniform_delays,
)
from repro.sim.failure_detector import FailureDetector
from tests.reference_async import PerCopyAsyncEngine, run_logged


def _run(engine_cls, *, n, t, crash_times, delay_factory, detector_factory, seed):
    return run_logged(
        engine_cls,
        build_async_protocol_a(n, t),
        n,
        seed=seed,
        crash_times=dict(crash_times),
        delay_model=delay_factory(),
        failure_detector=detector_factory(),
    )


# 4 scenario shapes x 3 seeds = 12 async combinations.
SCENARIOS = [
    ("nofail_uniform", {}, uniform_delays, FailureDetector),
    (
        "rolling_uniform",
        {pid: 4.0 + 9.0 * pid for pid in range(6)},
        uniform_delays,
        FailureDetector,
    ),
    (
        "crash_fixed_delay",
        {0: 5.0, 1: 17.0},
        lambda: fixed_delays(1.0),
        lambda: FailureDetector(min_delay=2.0, max_delay=2.0),
    ),
    (
        "slow_detector",
        {0: 1.0},
        lambda: uniform_delays(0.1, 8.0),
        lambda: FailureDetector(min_delay=40.0, max_delay=60.0),
    ),
]
SEEDS = [0, 1, 2]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name,crash_times,delay_factory,detector_factory",
    SCENARIOS,
    ids=[s[0] for s in SCENARIOS],
)
def test_batched_delivery_matches_per_copy_reference(
    name, crash_times, delay_factory, detector_factory, seed
):
    n, t = 60, 8
    fast, fast_work, fast_log = _run(
        AsyncEngine,
        n=n,
        t=t,
        crash_times=crash_times,
        delay_factory=delay_factory,
        detector_factory=detector_factory,
        seed=seed,
    )
    ref, ref_work, ref_log = _run(
        PerCopyAsyncEngine,
        n=n,
        t=t,
        crash_times=crash_times,
        delay_factory=delay_factory,
        detector_factory=detector_factory,
        seed=seed,
    )
    assert fast.metrics.as_dict() == ref.metrics.as_dict()
    assert fast_work == ref_work
    assert fast_log == ref_log
    assert (fast.completed, fast.survivors, fast.halted) == (
        ref.completed,
        ref.survivors,
        ref.halted,
    )


def test_the_reference_schedules_every_copy_on_its_own():
    """If the reference stopped taking its per-copy path, the comparison
    above would pit the engine against itself."""
    kinds = set()

    class Counting(PerCopyAsyncEngine):
        def _dispatch(self, event):
            kinds.add(event.kind)
            return super()._dispatch(event)

    for _, crash_times, delay_factory, detector_factory in SCENARIOS:
        _run(
            Counting,
            n=60,
            t=8,
            crash_times=crash_times,
            delay_factory=delay_factory,
            detector_factory=detector_factory,
            seed=0,
        )
    assert "deliver" in kinds
    assert "deliver_bcast" not in kinds


def test_fixed_delays_form_real_batches():
    """Sanity: all-to-all traffic under deterministic delays really does
    collapse into multi-copy groups (one heap event per broadcast per
    instant), and the grouped run equals the per-copy run.  Async
    Protocol A has a single active sender, so the grouping regime is
    agreement-style concurrent broadcast."""
    group_sizes = []

    class _SpyEngine(AsyncEngine):
        def _deliver_bcast(self, event):
            group_sizes.append(len(event.payload[-1]))
            return super()._deliver_bcast(event)

    t, rounds = 6, 3

    def build():
        class Gossip(AsyncProcess):
            def __init__(self, pid, total):
                super().__init__(pid, total)
                self.heard = []

            def on_start(self, ctx):
                self._broadcast(ctx, 0)

            def _broadcast(self, ctx, generation):
                others = tuple(dst for dst in range(self.t) if dst != self.pid)
                ctx.broadcast(
                    Broadcast(others, (generation, self.pid), MessageKind.CONTROL)
                )
                ctx.wake_in(2.0, generation + 1)

            def on_message(self, ctx, src, payload, kind):
                self.heard.append((round(ctx.now, 9), src, payload))

            def on_wake(self, ctx, tag):
                if tag >= rounds:
                    ctx.halt()
                else:
                    self._broadcast(ctx, tag)

        return [Gossip(pid, t) for pid in range(t)]

    fast_procs = build()
    fast = _SpyEngine(fast_procs, seed=1, delay_model=fixed_delays(1.0)).run()
    ref_procs = build()
    ref = PerCopyAsyncEngine(ref_procs, seed=1, delay_model=fixed_delays(1.0)).run()
    assert fast.metrics.as_dict() == ref.metrics.as_dict()
    assert [p.heard for p in fast_procs] == [p.heard for p in ref_procs]
    # Every broadcast generation lands as ONE group of its t-1
    # concurrent copies.
    assert max(group_sizes) == t - 1


def test_zero_delay_self_feedback_delivers_in_order():
    """A 0-delay send issued *while an earlier copy is being delivered* is
    due at the same instant and is handed over after the copies already
    queued for it."""

    delivered = []

    class Sender(AsyncProcess):
        def on_start(self, ctx):
            ctx.broadcast(Broadcast((1,), "first", MessageKind.CONTROL))
            ctx.broadcast(Broadcast((1,), "second", MessageKind.CONTROL))
            ctx.wake_in(100.0, "stop")

        def on_message(self, ctx, src, payload, kind):
            pass

        def on_wake(self, ctx, tag):
            ctx.halt()

    class Echo(AsyncProcess):
        def on_message(self, ctx, src, payload, kind):
            delivered.append(payload)
            if payload == "first":
                # 0-delay self-send: due now, after "second".
                ctx.broadcast(Broadcast((1,), "reflex", MessageKind.CONTROL))
            if len(delivered) >= 3:
                ctx.halt()

    procs = [Sender(0, 2), Echo(1, 2)]
    AsyncEngine(procs, seed=1, delay_model=fixed_delays(0.0)).run()
    assert delivered == ["first", "second", "reflex"]


# ---- event ordering --------------------------------------------------------


class _Incomparable:
    """A payload that refuses every comparison."""

    def _refuse(self, other):
        raise AssertionError("an event payload was compared")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __hash__ = object.__hash__


def test_equal_times_pop_in_seq_order():
    """The heap orders events by (time, seq): at one instant the kind,
    pid and payload never decide."""
    kinds = ["wake", "crash", "suspect", "deliver_bcast", "deliver"]
    events = [
        _Event(2.0 if seq % 3 else 1.5, seq, kinds[seq % 5], (7 * seq) % 11, payload)
        for seq, payload in enumerate([_Incomparable() for _ in range(40)])
    ]
    heap = []
    for event in reversed(events):
        heapq.heappush(heap, event)
    popped = [heapq.heappop(heap) for _ in range(len(events))]
    assert [(e.time, e.seq) for e in popped] == sorted((e.time, e.seq) for e in events)


def test_engine_dispatches_same_instant_events_in_schedule_order():
    """At one instant events run in the order they were queued: five
    wakes, then a crash (the kind strings would sort it first), then a
    wake the crash pre-empts; messages whose payloads refuse comparison
    travel through the queue untouched."""
    log = []

    class Waker(AsyncProcess):
        def on_start(self, ctx):
            for _ in range(3):
                ctx.broadcast(Broadcast((1,), _Incomparable(), MessageKind.CONTROL))

        def on_message(self, ctx, src, payload, kind):
            pass

        def on_wake(self, ctx, tag):
            log.append(("wake", tag))

    class Sink(AsyncProcess):
        def on_message(self, ctx, src, payload, kind):
            log.append(("msg", type(payload).__name__))
            if len(log) == 8:
                ctx.halt()

    engine = AsyncEngine(
        [Waker(0, 2), Sink(1, 2)], seed=3, delay_model=fixed_delays(1.0)
    )
    for tag in range(5):
        engine._schedule_abs(1.0, "wake", 0, tag)
    engine._schedule_abs(1.0, "crash", 0, None)
    engine._schedule_abs(1.0, "wake", 0, "after the crash")
    result = engine.run()
    # The sends were queued by on_start, after everything above.
    assert log == [("wake", tag) for tag in range(5)] + [("msg", "_Incomparable")] * 3
    assert (result.metrics.crashes, result.halted) == (1, 1)


def test_all_retired_follows_retirements_out_of_pid_order():
    """The first-live cursor only moves forward, and only past retired
    pids: retiring 2, 0, 3, 1 reads all-retired only at the end."""

    class Idle(AsyncProcess):
        def on_message(self, ctx, src, payload, kind):
            pass

    processes = [Idle(pid, 4) for pid in range(4)]
    engine = AsyncEngine(processes)
    answers = []
    for pid, how in [(2, "halted"), (0, "crashed"), (3, "halted"), (1, "crashed")]:
        setattr(processes[pid], how, True)
        answers.append(engine._all_retired())
    assert answers == [False, False, False, True]


def test_run_ends_when_the_last_process_retires_out_of_pid_order():
    """Processes halting from the highest pid down end the run at the
    last halt; the later timer left in the queue never fires."""
    fired = []

    class Timed(AsyncProcess):
        def on_start(self, ctx):
            ctx.wake_in(float(self.t - self.pid), "halt")
            ctx.wake_in(100.0, "late")

        def on_message(self, ctx, src, payload, kind):
            pass

        def on_wake(self, ctx, tag):
            fired.append((self.pid, tag))
            if tag == "halt":
                ctx.halt()

    result = AsyncEngine([Timed(pid, 5) for pid in range(5)]).run()
    assert fired == [(pid, "halt") for pid in (4, 3, 2, 1, 0)]
    assert result.halted == 5
