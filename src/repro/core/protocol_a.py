"""Protocol A (Section 2.1): effort O(n + t*sqrt(t)), time O(nt + t^2).

At every round at most one process is *active*; the active process works
through the subchunks, partial-checkpointing each to its own group and
full-checkpointing each chunk to all groups.  Process ``j`` takes over at
the fixed deadline ``DD(j) = j (n + 3t)`` if it has not learned that the
work is complete; the deadline guarantees that every smaller-numbered
process has retired (Lemma 2.2), so active periods never overlap.

Theorem 2.3: in every execution at most ``3n`` units of work are
performed, at most ``9 t sqrt(t)`` messages are sent, and every process
retires by round ``nt + 3t^2``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.deadlines import ProtocolADeadlines
from repro.core.dowork import (
    Step,
    checkpoint_payload_subchunk,
    dowork_script,
    fictitious_initial_message,
    layout,
)
from repro.errors import ConfigurationError
from repro.sim.actions import Action, Envelope, MessageKind
from repro.sim.process import Process

_ORDINARY_KINDS = (MessageKind.PARTIAL_CHECKPOINT, MessageKind.FULL_CHECKPOINT)


class ProtocolAProcess(Process):
    """One process of Protocol A.

    ``epoch`` shifts every deadline by a fixed offset, which lets the
    protocol be embedded mid-simulation (Protocol D's reversion path
    starts a Protocol A instance at the round agreement completed).
    """

    def __init__(
        self,
        pid: int,
        t: int,
        n: int,
        *,
        epoch: int = 0,
        slack: int = 2,
    ):
        super().__init__(pid, t)
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n}")
        self.n = n
        self.epoch = epoch
        self.groups, self.plan, self.deadlines = layout(n, t, slack, ProtocolADeadlines)
        self._deadline = epoch + self.deadlines.DD(pid)
        self._script: Optional[Iterator[Step]] = None
        self._active = False
        # The paper's fictitious round-0 message from process 0.
        payload, sender, stamp = fictitious_initial_message(pid, self.groups)
        self.last_payload: tuple = payload
        self.last_sender: int = sender
        self.last_stamp: int = epoch + stamp

    # ---- scheduling -----------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._active and not self.retired

    def activation_deadline(self) -> int:
        return self._deadline

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        if self._active:
            return 0  # act every round; the engine clamps to "next round"
        return self._deadline

    # ---- round logic ------------------------------------------------------

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        done_seen = self._absorb(inbox)
        if done_seen and not self._active:
            # Terminate before ever becoming active: the work is done.
            return Action.halting()
        if not self._active and round_number >= self._deadline:
            self._activate()
        if self._active:
            return self._step_script()
        return Action.idle()

    def _absorb(self, inbox: List[Envelope]) -> bool:
        """Fold the inbox into ``last_*``; return whether a terminal
        checkpoint (subchunk ``t``) was seen."""
        done = False
        for envelope in inbox:
            if envelope.kind not in _ORDINARY_KINDS:
                continue
            self.last_payload = envelope.payload
            self.last_sender = envelope.src
            self.last_stamp = envelope.sent_round
            if checkpoint_payload_subchunk(envelope.payload) >= self.plan.num_subchunks:
                done = True
        return done

    def _activate(self) -> None:
        self._active = True
        self._script = dowork_script(
            self.pid, self.groups, self.plan, self.last_payload, self.last_sender
        )

    def _step_script(self) -> Action:
        assert self._script is not None
        try:
            work, sends = next(self._script)
        except StopIteration:
            return Action.halting()
        return Action(work=work, sends=sends)


def build_protocol_a(n: int, t: int) -> List[ProtocolAProcess]:
    """Construct the full set of Protocol A processes."""
    return [ProtocolAProcess(pid, t, n) for pid in range(t)]
