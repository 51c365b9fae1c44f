"""Asynchronous Protocol A (end of Section 2.1).

"Notice that we can easily modify this algorithm to run in a completely
asynchronous system equipped with an appropriate failure detection
mechanism: rather than waiting until round DD(j) before becoming active,
process j waits until it has been informed that processes 1, ..., j-1
crashed or terminated."

The takeover rule here is exactly that, with one refinement the paper
leaves implicit: the failure detector reports only *crashes* (soundness
forbids reporting clean termination, which is indistinguishable from
slowness in a silent process).  That suffices: if a smaller-numbered
process terminated cleanly, its terminal full checkpoint reached every
process (crash-free broadcasts are complete), so ``j`` will learn the
work is done and halt instead of taking over; if it crashed, the
detector eventually says so.

The active-process behaviour is byte-for-byte Protocol A's DoWork script
(each step is an event rather than a round), so the effort profile is
the synchronous protocol's; only the takeover trigger changes.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from repro.core.deadlines import DEFAULT_SLACK, ProtocolADeadlines
from repro.core.dowork import (
    Step,
    checkpoint_payload_subchunk,
    dowork_script,
    fictitious_initial_message,
    layout,
)
from repro.sim.actions import MessageKind
from repro.sim.async_engine import AsyncContext, AsyncProcess
from repro.sim.bitset import IntBitset

_ORDINARY_KINDS = (MessageKind.PARTIAL_CHECKPOINT, MessageKind.FULL_CHECKPOINT)


class AsyncProtocolAProcess(AsyncProcess):
    """Protocol A process for the asynchronous engine."""

    def __init__(self, pid: int, t: int, n: int, *, step_delay: float = 1.0):
        super().__init__(pid, t)
        self.n = n
        self.step_delay = step_delay
        self.groups, self.plan, _ = layout(n, t, DEFAULT_SLACK, ProtocolADeadlines)
        self.suspected: IntBitset = IntBitset()
        self.active = False
        self._script: Optional[Iterator[Step]] = None
        payload, sender, _ = fictitious_initial_message(pid, self.groups)
        self.last_payload: tuple = payload
        self.last_sender: int = sender

    # ---- event handlers ------------------------------------------------

    def on_start(self, ctx: AsyncContext) -> None:
        if self.pid == 0:
            self._activate(ctx)

    def on_message(
        self, ctx: AsyncContext, src: int, payload: Any, kind: MessageKind
    ) -> None:
        if kind not in _ORDINARY_KINDS:
            return
        self.last_payload = payload
        self.last_sender = src
        if checkpoint_payload_subchunk(payload) >= self.plan.num_subchunks:
            if not self.active:
                ctx.halt()

    def on_suspect(self, ctx: AsyncContext, crashed_pid: int) -> None:
        self.suspected.add(crashed_pid)
        if self.active or self.halted:
            return
        if self.suspected.count_below(self.pid) == self.pid:
            self._activate(ctx)

    def on_wake(self, ctx: AsyncContext, tag: Any) -> None:
        if tag != "step" or not self.active or self.retired:
            return
        self._step(ctx)

    # ---- the active script --------------------------------------------------

    def _activate(self, ctx: AsyncContext) -> None:
        self.active = True
        self._script = dowork_script(
            self.pid, self.groups, self.plan, self.last_payload, self.last_sender
        )
        self._step(ctx)

    def _step(self, ctx: AsyncContext) -> None:
        assert self._script is not None
        try:
            work, sends = next(self._script)
        except StopIteration:
            ctx.halt()
            return
        if work is not None:
            ctx.perform(work)
        # A DoWork step's broadcast stays un-expanded (one heap event per
        # distinct due instant).
        if sends is not None:
            ctx.broadcast(sends)
        ctx.wake_in(self.step_delay, "step")


def build_async_protocol_a(
    n: int, t: int, *, step_delay: float = 1.0
) -> List[AsyncProtocolAProcess]:
    return [
        AsyncProtocolAProcess(pid, t, n, step_delay=step_delay) for pid in range(t)
    ]
