"""Event-driven asynchronous simulator.

Used for the paper's remark (end of Section 2.1) that Protocol A needs
no synchrony beyond failure detection: here there are no rounds, message
delays are arbitrary (adversary- or distribution-controlled) but finite,
and takeovers are triggered by a sound-and-complete failure detector
rather than by deadlines.

Processes are event handlers; the engine maintains a priority queue of
timed events (message deliveries, self-scheduled wake-ups, crashes, and
failure-detector suspicions) and runs until every process has retired.

Batched delivery
----------------

Message deliveries are batched per ``(recipient, due_time)``, mirroring
the stamp-sorted mailbox design of the synchronous engine: the first
copy due at a given instant pushes one ``deliver_batch`` heap event and
later copies for the same instant append to the batch list, so the heap
holds one entry per distinct delivery instant per recipient instead of
one per message copy.  Dispatch order is *exactly* the per-copy order:
each copy keeps its own sequence number, and the batch loop yields back
to the heap whenever another queued event (a crash, a wake, another
recipient's batch) sorts before the next copy at the same instant
(``tests/test_async_equivalence.py`` diffs this against the per-copy
reference engine of ``tests/reference_async.py``).

Lazy broadcast fan-out
----------------------

A packed :class:`~repro.sim.actions.Broadcast` submitted through
:meth:`AsyncContext.broadcast` extends that batching across recipients: the engine draws each copy's
delay in ascending-recipient order (the same RNG stream as per-copy
sends), groups the copies by due instant, and schedules **one**
``deliver_bcast`` heap event per distinct due time - O(distinct
due_times) events instead of O(copies), with the payload and kind
stored once per broadcast.  Metrics are recorded with one
:meth:`Metrics.record_sends` call per broadcast (a per-copy send books
its one copy through the same call).  Per-copy
sequence numbers and the same yield-to-heap-head rule keep global
dispatch order exactly the per-copy engine's (the same reference
expands every broadcast).

Congestion budgets
------------------

A :class:`~repro.sim.congestion.CongestionBudget` maps the synchronous
engine's per-round caps onto continuous time via unit *windows*
``[k, k + 1)``:

* **send**: each process departs at most ``send`` copies per window.  A
  copy over budget departs at the start of the next free window (the
  per-src window cursor persists, so backlogs cascade); its delay is
  drawn in the usual order and measured from the delayed departure.
* **receive**: each process absorbs at most ``receive`` copies per
  window; an over-budget copy is re-queued as a per-copy delivery at the
  start of the next window, where it competes under that window's
  budget again.  Deferral order is deterministic (fresh sequence numbers
  in arrival order).
"""

from __future__ import annotations

import heapq
import itertools
import random
from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import BudgetExceeded, SimulationStalled
from repro.sim.actions import Broadcast, MessageKind
from repro.sim.congestion import CongestionBudget
from repro.sim.failure_detector import FailureDetector
from repro.sim.metrics import Metrics, RunResult
from repro.sim.rng import derive_rng, make_rng
from repro.sim.specs import SpecFamily, SpecKind, number, ordered
from repro.work.tracker import WorkTracker

DelayModel = Callable[[random.Random, int, int], float]
"""(rng, src, dst) -> message delay."""


def uniform_delays(low: float = 0.5, high: float = 4.0) -> DelayModel:
    def model(rng: random.Random, src: int, dst: int) -> float:
        return rng.uniform(low, high)

    return model


def fixed_delays(delay: float = 1.0) -> DelayModel:
    """Every message takes exactly ``delay`` time units.

    Deterministic delays make concurrent senders' copies coincide at the
    recipient, which is the regime where per-instant delivery batching
    collapses many heap events into one.
    """

    def model(rng: random.Random, src: int, dst: int) -> float:
        return delay

    return model


# ---- declarative delay-model specs ----------------------------------------
#
# Strings like ``"uniform:0.5,4.0"`` / ``"fixed:1.0"`` or dicts like
# ``{"kind": "uniform", "low": 0.5, "high": 4.0}`` (the grammar of
# :mod:`repro.sim.specs`).  This is what :class:`repro.api.Scenario`
# serialises.

#: str spec, dict spec, a ready-made model callable, or None (default).
DelaySpec = Any

_DELAY = number(minimum=0)

DELAY = SpecFamily(
    "delay model",
    (
        SpecKind(
            "uniform",
            ("low", "high"),
            {"low": _DELAY, "high": _DELAY},
            factory=uniform_delays,
            summary="every delay uniform in [low, high] (default [0.5, 4.0])",
            check=ordered("low", "high", defaults={"low": 0.5, "high": 4.0}),
        ),
        SpecKind(
            "fixed",
            ("delay",),
            {"delay": _DELAY},
            factory=fixed_delays,
            summary="every delay exactly `delay` (default 1.0)",
        ),
    ),
    live=Callable,
)

#: ``normalize_delay_spec(spec)``: ``None`` or the canonical dict; a
#: delay-model callable is not serializable.
normalize_delay_spec = DELAY.normalize

#: ``delay_model_from_spec(spec)``: a fresh delay model; a callable
#: passes through, and ``None`` builds ``None``, which the engine reads
#: as its default :func:`uniform_delays`.
delay_model_from_spec = DELAY.build


class _Event(NamedTuple):
    """One queued event.  A tuple, so the heap orders events by C tuple
    comparison: ``(time, seq)`` decides, because ``seq`` is unique, and
    ``kind``, ``pid`` and ``payload`` are never compared."""

    time: float
    seq: int
    # deliver_batch | deliver_bcast | deliver (oracle path) | wake | crash | suspect
    kind: str
    pid: int
    payload: Any = None


#: ``_new(_Event, fields)`` builds an event from its five fields without
#: the NamedTuple's Python-level ``__new__``.
_new = tuple.__new__


class AsyncContext:
    """Handler-facing API: everything a process may do during an event."""

    def __init__(self, engine: "AsyncEngine", pid: int):
        self._engine = engine
        self._pid = pid

    @property
    def now(self) -> float:
        return self._engine.now

    def send(self, dst: int, payload: Any, kind: MessageKind) -> None:
        self._engine._send(self._pid, dst, payload, kind)

    def broadcast(self, bcast: Broadcast) -> None:
        """Submit one packed broadcast (kept un-expanded by the engine)."""
        self._engine._broadcast(self._pid, bcast)

    def perform(self, unit: int) -> None:
        self._engine._perform(self._pid, unit)

    def wake_in(self, delay: float, tag: Any = None) -> None:
        self._engine._schedule(delay, "wake", self._pid, tag)

    def halt(self) -> None:
        self._engine._halt(self._pid)


class AsyncProcess(ABC):
    """Base class for asynchronous event-driven processes."""

    def __init__(self, pid: int, t: int):
        self.pid = pid
        self.t = t
        self.crashed = False
        self.halted = False

    @property
    def retired(self) -> bool:
        return self.crashed or self.halted

    def on_start(self, ctx: AsyncContext) -> None:
        """Called once at time 0."""

    @abstractmethod
    def on_message(
        self, ctx: AsyncContext, src: int, payload: Any, kind: MessageKind
    ) -> None:
        ...

    def on_wake(self, ctx: AsyncContext, tag: Any) -> None:
        """A self-scheduled timer fired."""

    def on_suspect(self, ctx: AsyncContext, crashed_pid: int) -> None:
        """The failure detector reports that ``crashed_pid`` has crashed."""


class AsyncEngine:
    """Priority-queue event loop with an oracle failure detector."""

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        *,
        tracker: Optional[WorkTracker] = None,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        failure_detector: Optional[FailureDetector] = None,
        crash_times: Optional[Dict[int, float]] = None,
        max_events: int = 2_000_000,
        congestion: Optional[CongestionBudget] = None,
    ):
        self.processes: List[AsyncProcess] = list(processes)
        self.t = len(self.processes)
        self.tracker = tracker
        self.rng = make_rng(seed)
        self.delay_rng = derive_rng(self.rng, "delays")
        self.fd_rng = derive_rng(self.rng, "failure-detector")
        self.delay_model = delay_model or uniform_delays()
        self.failure_detector = failure_detector or FailureDetector()
        self.max_events = max_events
        self.congestion = congestion
        # Congestion window cursors: src -> (window, copies departed) and
        # dst -> (window, copies absorbed); see module docstring.
        self._send_windows: Dict[int, Tuple[int, int]] = {}
        self._recv_windows: Dict[int, Tuple[int, int]] = {}
        # One ledger per run, and one booking call per executed unit
        # (see :class:`repro.sim.engine.Engine`).
        self.metrics = tracker.metrics if tracker is not None else Metrics()
        self._book_work = (
            tracker.record if tracker is not None else self.metrics.record_work
        )
        self.now = 0.0
        self._heap: List[_Event] = []
        #: Every pid below this one has retired (see :meth:`_all_retired`).
        self._first_live = 0
        self._seq = itertools.count()
        #: (dst, due_time) -> [(seq, src, payload, kind), ...] in send order.
        self._batches: Dict[Tuple[int, float], List[Tuple[int, int, Any, MessageKind]]] = {}
        for pid, crash_time in sorted((crash_times or {}).items()):
            self._schedule_abs(crash_time, "crash", pid, None)

    # ---- scheduling primitives ------------------------------------------------

    def _schedule(self, delay: float, kind: str, pid: int, payload: Any) -> None:
        self._schedule_abs(self.now + max(0.0, delay), kind, pid, payload)

    def _schedule_abs(self, time: float, kind: str, pid: int, payload: Any) -> None:
        heapq.heappush(self._heap, _new(_Event, (time, next(self._seq), kind, pid, payload)))

    def _departure(self, src: int) -> float:
        """Send-budget departure instant for one copy from ``src``.

        Consumes one slot in the earliest window with capacity at or
        after ``now``; the copy departs immediately when that window is
        the current one, else at the start of the later window.
        """
        budget = self.congestion.send
        base = int(self.now)
        window, used = self._send_windows.get(src, (base, 0))
        if window < base:
            window, used = base, 0
        while used >= budget:
            window += 1
            used = 0
        self._send_windows[src] = (window, used + 1)
        return self.now if window == base else float(window)

    def _admit(self, dst: int) -> bool:
        """Consume one receive-budget slot for ``dst`` in the current
        window; False means the copy must be retried next window."""
        budget = self.congestion.receive
        window = int(self.now)
        slot, used = self._recv_windows.get(dst, (window, 0))
        if slot < window:
            slot, used = window, 0
        if used < budget:
            self._recv_windows[dst] = (window, used + 1)
            return True
        return False

    def _send(self, src: int, dst: int, payload: Any, kind: MessageKind) -> None:
        self.metrics.record_sends(src, kind, 1, int(self.now))
        delay = max(0.0, self.delay_model(self.delay_rng, src, dst))
        congestion = self.congestion
        if congestion is not None and congestion.send is not None:
            due = self._departure(src) + delay
        else:
            due = self.now + delay
        key = (dst, due)
        batch = self._batches.get(key)
        seq = next(self._seq)
        if batch is None:
            self._batches[key] = [(seq, src, payload, kind)]
            heapq.heappush(self._heap, _new(_Event, (due, seq, "deliver_batch", dst, None)))
        else:
            batch.append((seq, src, payload, kind))

    def _broadcast(self, src: int, bcast: Broadcast) -> None:
        """Schedule one packed broadcast: per-copy delay draws (ascending
        recipients, same RNG stream as :meth:`_send`), then one
        ``deliver_bcast`` heap event per *distinct due instant* instead
        of one event per copy.  Each copy keeps its own sequence number,
        so dispatch interleaves with every other queued event exactly as
        the expanded per-copy schedule would."""
        count = len(bcast)
        if count == 0:
            return
        self.metrics.record_sends(src, bcast.kind, count, int(self.now))
        delay_model = self.delay_model
        delay_rng = self.delay_rng
        now = self.now
        take_seq = self._seq
        congestion = self.congestion
        budgeted = congestion is not None and congestion.send is not None
        by_due: Dict[float, List[Tuple[int, int]]] = {}
        bits = bcast.recipients.to_int()
        while bits:
            low = bits & -bits
            bits ^= low
            dst = low.bit_length() - 1
            delay = max(0.0, delay_model(delay_rng, src, dst))
            due = (self._departure(src) if budgeted else now) + delay
            seq = next(take_seq)
            copies = by_due.get(due)
            if copies is None:
                by_due[due] = [(seq, dst)]
            else:
                copies.append((seq, dst))
        payload, kind = bcast.payload, bcast.kind
        for due, copies in by_due.items():
            first_seq, first_dst = copies[0]
            record = (src, payload, kind, copies)
            heapq.heappush(
                self._heap,
                _new(_Event, (due, first_seq, "deliver_bcast", first_dst, (record, 0))),
            )

    def _perform(self, pid: int, unit: int) -> None:
        self._book_work(pid, unit, int(self.now))

    def _halt(self, pid: int) -> None:
        process = self.processes[pid]
        if not process.retired:
            process.halted = True
            self.metrics.record_retire(pid, int(self.now))

    # ---- the event loop ----------------------------------------------------------

    def run(self) -> RunResult:
        for process in self.processes:
            if not process.retired:
                process.on_start(AsyncContext(self, process.pid))
        events = 0
        while self._heap and not self._all_retired():
            event = heapq.heappop(self._heap)
            self.now = max(self.now, event.time)
            events += self._dispatch(event)
            if events > self.max_events:
                raise BudgetExceeded(f"exceeded max_events={self.max_events}")
        if not self._all_retired():
            raise SimulationStalled(
                "event queue drained with live asynchronous processes remaining"
            )
        return self._result()

    def _dispatch(self, event: _Event) -> int:
        """Handle one popped event; return how many events it consumed
        against ``max_events`` (a delivery batch counts one per copy)."""
        process = self.processes[event.pid]
        if event.kind == "crash":
            if not process.retired:
                process.crashed = True
                self.metrics.record_crash(event.pid, int(self.now))
                for observer in self.processes:
                    if observer.retired or observer.pid == event.pid:
                        continue
                    delay = self.failure_detector.notification_delay(
                        self.fd_rng, observer.pid, event.pid
                    )
                    self._schedule(delay, "suspect", observer.pid, event.pid)
            return 1
        if event.kind == "deliver_batch":
            return self._deliver_batch(event)
        if event.kind == "deliver_bcast":
            return self._deliver_bcast(event)
        if process.retired:
            return 1
        ctx = AsyncContext(self, process.pid)
        if event.kind == "deliver":
            # Per-copy path: the reference (oracle) engine in
            # tests/reference_async.py, and re-queued over-budget
            # copies under a receive budget.
            congestion = self.congestion
            if (
                congestion is not None
                and congestion.receive is not None
                and not self._admit(process.pid)
            ):
                self._schedule_abs(
                    float(int(self.now) + 1), "deliver", process.pid, event.payload
                )
                return 1
            src, payload, kind = event.payload
            process.on_message(ctx, src, payload, kind)
        elif event.kind == "wake":
            process.on_wake(ctx, event.payload)
        elif event.kind == "suspect":
            process.on_suspect(ctx, event.payload)
        return 1

    def _deliver_batch(self, event: _Event) -> int:
        """Deliver every copy batched at ``(event.pid, event.time)``.

        Copies are handed over in send (sequence) order; if any other
        queued event sorts between two copies at the same instant, the
        undelivered suffix is re-pushed under the next copy's sequence
        number so global (time, seq) dispatch order is exactly the
        per-copy engine's.
        """
        time = event.time
        key = (event.pid, time)
        batch = self._batches.get(key)
        if batch is None:  # pragma: no cover - defensive; keys are unique
            return 1
        process = self.processes[event.pid]
        heap = self._heap
        ctx = AsyncContext(self, event.pid)
        congestion = self.congestion
        guarded = congestion is not None and congestion.receive is not None
        delivered = 0
        # A re-pushed batch event carries its resume index; the batch list
        # is append-only while in flight, so indices stay valid.
        index = event.payload or 0
        while index < len(batch):
            seq, src, payload, kind = batch[index]
            if heap:
                head = heap[0]
                if head.time < time or (head.time == time and head.seq < seq):
                    heapq.heappush(
                        heap, _new(_Event, (time, seq, "deliver_batch", event.pid, index))
                    )
                    return max(delivered, 1)
            index += 1
            delivered += 1
            if not process.retired:
                if guarded and not self._admit(event.pid):
                    self._schedule_abs(
                        float(int(time) + 1),
                        "deliver",
                        event.pid,
                        (src, payload, kind),
                    )
                else:
                    process.on_message(ctx, src, payload, kind)
        del self._batches[key]
        return max(delivered, 1)

    def _deliver_bcast(self, event: _Event) -> int:
        """Deliver the copies of one broadcast that share a due instant.

        The same contract as :meth:`_deliver_batch`, with the recipient
        varying per copy: copies are handed over in sequence order, and
        the undelivered suffix is re-pushed under the next copy's
        sequence number whenever any other queued event sorts first.
        """
        time = event.time
        record, index = event.payload
        src, payload, kind, copies = record
        heap = self._heap
        processes = self.processes
        congestion = self.congestion
        guarded = congestion is not None and congestion.receive is not None
        delivered = 0
        while index < len(copies):
            seq, dst = copies[index]
            if heap:
                head = heap[0]
                if head.time < time or (head.time == time and head.seq < seq):
                    heapq.heappush(
                        heap, _new(_Event, (time, seq, "deliver_bcast", dst, (record, index)))
                    )
                    return max(delivered, 1)
            index += 1
            delivered += 1
            process = processes[dst]
            if not process.retired:
                if guarded and not self._admit(dst):
                    self._schedule_abs(
                        float(int(time) + 1), "deliver", dst, (src, payload, kind)
                    )
                else:
                    process.on_message(AsyncContext(self, dst), src, payload, kind)
        return max(delivered, 1)

    # ---- results ---------------------------------------------------------------------

    def _all_retired(self) -> bool:
        # Async processes never rejoin, so everything below the first
        # live pid stays retired and the cursor only moves forward.
        processes, first = self.processes, self._first_live
        while first < self.t and processes[first].retired:
            first += 1
        self._first_live = first
        return first == self.t

    def _result(self) -> RunResult:
        survivors = sum(1 for p in self.processes if not p.crashed)
        halted = sum(1 for p in self.processes if p.halted)
        completed = self.tracker.all_done() if self.tracker is not None else True
        return RunResult(
            completed=completed, survivors=survivors, halted=halted, metrics=self.metrics
        )
