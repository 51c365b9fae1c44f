"""Protocol B (Section 2.3): effort O(n + t*sqrt(t)), time O(n + t).

Protocol B refines Protocol A's fixed takeover deadlines with *relative*
ones.  Process ``j`` tracks the last ordinary message it received (from
``i``, at stamp round ``r'``; the paper's fictitious round-0 message from
process 0 seeds the state).  If nothing arrives for ``DDB(j, i)`` rounds,
``j`` becomes **preactive**: it polls the lower-numbered processes of its
own group one by one with ``go ahead`` messages, waiting ``PTO`` rounds
between polls.  A live recipient becomes active immediately (its first
DoWork step is a broadcast that reaches ``j`` and sends ``j`` back to
passive); if nobody answers, ``j`` becomes active itself.  Once active, a
process runs exactly Protocol A's DoWork.

Theorem 2.8: at most ``3n`` work, at most ``10 t sqrt(t)`` messages
(ordinary plus at most one go-ahead per in-group pair), and every process
retires by round ``3n + 8t``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.deadlines import ProtocolBDeadlines
from repro.core.dowork import (
    Step,
    checkpoint_payload_subchunk,
    dowork_script,
    fictitious_initial_message,
    layout,
)
from repro.errors import ConfigurationError
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.process import Process

_ORDINARY_KINDS = (MessageKind.PARTIAL_CHECKPOINT, MessageKind.FULL_CHECKPOINT)

_INACTIVE = "inactive"
_PREACTIVE = "preactive"
_ACTIVE = "active"


class ProtocolBProcess(Process):
    """One process of Protocol B."""

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
        self.groups, self.plan, self.deadlines = layout(n, t, slack, ProtocolBDeadlines)
        self.state = _INACTIVE
        self._script: Optional[Iterator[Step]] = None
        payload, sender, stamp = fictitious_initial_message(pid, self.groups)
        self.last_payload: tuple = payload
        self.last_sender: int = sender
        self.last_stamp: int = epoch + stamp
        # Preactive bookkeeping.
        self._next_tick: Optional[int] = None
        self._next_target: Optional[int] = None
        # DDB(pid, sender) of the last sender it was asked for: every step
        # re-reads the deadline, and the last sender rarely changes.
        self._ddb_sender = -1
        self._ddb = 0

    # ---- scheduling -----------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.state == _ACTIVE and not self.retired

    def _inactive_deadline(self) -> int:
        if self.pid == 0:
            return self.epoch  # process 0 is active from round 0 by convention
        sender = self.last_sender
        if sender != self._ddb_sender:
            self._ddb = self.deadlines.DDB(self.pid, sender)
            self._ddb_sender = sender
        return self.last_stamp + self._ddb

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        if self.state == _ACTIVE:
            return 0
        if self.state == _PREACTIVE:
            return self._next_tick
        return self._inactive_deadline()

    # ---- round logic ------------------------------------------------------

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        got_ordinary, got_go_ahead, done_seen = self._absorb(inbox)
        if self.state == _ACTIVE:
            return self._step_script()
        if done_seen:
            return Action.halting()
        if got_go_ahead:
            return self._activate_and_step()
        if self.state == _PREACTIVE:
            if got_ordinary:
                # Someone is alive and working: become passive again.
                self.state = _INACTIVE
                self._next_tick = None
                self._next_target = None
                return Action.idle()
            return self._preactive_tick(round_number)
        # Inactive.
        if round_number >= self._inactive_deadline():
            if self.pid == 0:
                return self._activate_and_step()
            self._enter_preactive(round_number)
            return self._preactive_tick(round_number)
        return Action.idle()

    # ---- message handling ---------------------------------------------------

    def _absorb(self, inbox: List[Envelope]):
        got_ordinary = False
        got_go_ahead = False
        done_seen = False
        for envelope in inbox:
            if envelope.kind in _ORDINARY_KINDS:
                got_ordinary = True
                self.last_payload = envelope.payload
                self.last_sender = envelope.src
                self.last_stamp = envelope.sent_round
                if (
                    checkpoint_payload_subchunk(envelope.payload)
                    >= self.plan.num_subchunks
                ):
                    done_seen = True
            elif envelope.kind is MessageKind.GO_AHEAD:
                got_go_ahead = True
        return got_ordinary, got_go_ahead, done_seen

    # ---- preactive phase -------------------------------------------------------

    def _enter_preactive(self, round_number: int) -> None:
        self.state = _PREACTIVE
        self._next_tick = round_number
        sender_group = self.groups.group_of(self.last_sender)
        own_group = self.groups.group_of(self.pid)
        if sender_group != own_group:
            self._next_target = self.groups.group_start(own_group)
        else:
            self._next_target = self.last_sender + 1

    def _preactive_tick(self, round_number: int) -> Action:
        if round_number < (self._next_tick or 0):
            return Action.idle()  # woken early by an irrelevant message
        assert self._next_target is not None
        if self._next_target >= self.pid:
            return self._activate_and_step()
        target = self._next_target
        self._next_target = target + 1
        self._next_tick = round_number + self.deadlines.PTO
        return Action(sends=Broadcast((target,), ("go_ahead",), MessageKind.GO_AHEAD))

    # ---- active phase -----------------------------------------------------------

    def _activate_and_step(self) -> Action:
        self.state = _ACTIVE
        self._next_tick = None
        self._next_target = None
        self._script = dowork_script(
            self.pid, self.groups, self.plan, self.last_payload, self.last_sender
        )
        return self._step_script()

    def _step_script(self) -> Action:
        assert self._script is not None
        try:
            work, sends = next(self._script)
        except StopIteration:
            return Action.halting()
        return Action(work=work, sends=sends)


def build_protocol_b(
    n: int, t: int, *, epoch: int = 0, slack: int = 2
) -> List[ProtocolBProcess]:
    """Construct the full set of Protocol B processes."""
    return [
        ProtocolBProcess(pid, t, n, epoch=epoch, slack=slack) for pid in range(t)
    ]
