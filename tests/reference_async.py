"""The reference asynchronous engine of the equivalence tests.

:class:`PerCopyAsyncEngine` is the async engine with every message copy
scheduled on its own: a broadcast is expanded, in ascending recipient
order, into per-copy sends (:meth:`PerCopyAsyncEngine._send`, the
reference's own helper), and each copy is one ``deliver`` heap event
with its own sequence number - no ``deliver_bcast`` groups.  RNG
derivation, metrics, crash, failure-detector and congestion handling
are the engine's own, so a divergence from
:class:`~repro.sim.async_engine.AsyncEngine` is attributable to grouping
a broadcast's copies by due instant.

:func:`run_logged` runs processes under a logging wrapper and tracker
and returns the result, the order in which units were executed and a
payload-level log of every handler invocation.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.sim.actions import Broadcast, MessageKind
from repro.sim.async_engine import AsyncEngine, AsyncProcess
from repro.work.tracker import WorkTracker


class PerCopyAsyncEngine(AsyncEngine):
    """One delay draw and one ``deliver`` event per message copy."""

    def _send(self, src: int, dst: int, payload: Any, kind: MessageKind) -> None:
        self.metrics.record_sends(src, kind, 1, int(self.now))
        delay = max(0.0, self.delay_model(self.delay_rng, src, dst))
        congestion = self.congestion
        if congestion is not None and congestion.send is not None:
            departure = self._departure(src)
        else:
            departure = self.now
        self._schedule_abs(departure + delay, "deliver", dst, (src, payload, kind))

    def _broadcast(self, src: int, bcast: Broadcast) -> None:
        for dst in bcast.recipients:
            self._send(src, dst, bcast.payload, bcast.kind)


class LoggingTracker(WorkTracker):
    """Work tracker that also logs the exact execution order."""

    def __init__(self, n: int):
        super().__init__(n)
        self.log: List[tuple] = []

    def record(self, pid, unit, round_number):
        super().record(pid, unit, round_number)
        self.log.append((pid, unit, round_number))


class LoggingProcess(AsyncProcess):
    """Wraps an async process, logging every handler invocation with its
    time stamp and, for messages, the payload."""

    def __init__(self, inner: AsyncProcess, log: list):
        super().__init__(inner.pid, inner.t)
        self.inner = inner
        self.log = log

    # retired is the wrapper's own crashed/halted - the engine marks the
    # wrapper, and gates every dispatch on it, in both engines alike.

    def on_start(self, ctx):
        self.inner.on_start(ctx)

    def on_message(self, ctx, src, payload, kind):
        self.log.append(("msg", round(ctx.now, 9), self.pid, src, payload, kind.value))
        self.inner.on_message(ctx, src, payload, kind)

    def on_wake(self, ctx, tag):
        self.log.append(("wake", round(ctx.now, 9), self.pid, tag))
        self.inner.on_wake(ctx, tag)

    def on_suspect(self, ctx, crashed_pid):
        self.log.append(("suspect", round(ctx.now, 9), self.pid, crashed_pid))
        self.inner.on_suspect(ctx, crashed_pid)


def run_logged(engine_cls, processes: Sequence[AsyncProcess], n: int, **engine_options):
    """``(result, work log, handler log)`` of one run of ``processes``
    (``n`` units) on ``engine_cls``."""
    log: list = []
    tracker = LoggingTracker(n)
    engine = engine_cls(
        [LoggingProcess(p, log) for p in processes], tracker=tracker, **engine_options
    )
    return engine.run(), tracker.log, log
