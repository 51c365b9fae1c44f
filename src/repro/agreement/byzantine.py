"""Byzantine agreement from work protocols (Section 5).

The construction: the general broadcasts its value to senders ``0..t``
(it may crash mid-broadcast, informing an arbitrary subset); the ``t+1``
senders then run one of the work protocols where performing unit ``p``
means sending "the general's value is x" to process ``p``.  Every
process holds a current value (initially 0) and adopts any value it is
informed of; at a predetermined time by which the work protocol has
certainly terminated, everyone decides its current value.

Two value-piggybacking rules from the paper's proof are load-bearing:

* Protocols A and B must **not** attach the value to their checkpoint
  messages (checkpoints are broadcast, so a crash mid-checkpoint could
  leak a value past the takeover order and break agreement);
* Protocol C **must** attach the value to its ordinary messages (when a
  process takes over as most-knowledgeable it must also hold the last
  reported value).

Message complexities (for ``N`` system processes, ``t`` failures):
via Protocol B - ``O(N + t sqrt(t))`` messages and ``O(N)`` rounds
(matching Bracha's nonconstructive bound, constructively); via Protocol
C - ``O(N + t log t)`` messages at exponential time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.protocol_a import ProtocolAProcess
from repro.core.protocol_b import ProtocolBProcess
from repro.core.protocol_c import ProtocolCProcess
from repro.errors import ConfigurationError
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.engine import Adversary, Engine
from repro.sim.metrics import Metrics
from repro.sim.process import Process
from repro.work.tracker import WorkTracker

DEFAULT_VALUE = 0


class SenderProcess(Process):
    """Wraps a work-protocol process with the value-holding behaviour."""

    def __init__(self, inner: Process, *, is_general: bool, num_senders: int):
        super().__init__(inner.pid, inner.t)
        self.inner = inner
        self.value: Any = DEFAULT_VALUE
        self.is_general = is_general
        self.num_senders = num_senders
        self._general_pending = is_general
        if hasattr(inner, "attachment"):
            inner.attachment = self.value  # Protocol C piggybacking

    # ---- plumbing ---------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.inner.is_active

    def set_value(self, value: Any) -> None:
        self.value = value
        if hasattr(self.inner, "attachment"):
            self.inner.attachment = value

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        if self._general_pending:
            return 0
        return self.inner.wake_round()

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        forwarded = []
        for envelope in inbox:
            if envelope.kind is MessageKind.VALUE:
                self.set_value(envelope.payload[1])
            else:
                forwarded.append(envelope)
        if self._general_pending:
            self._general_pending = False
            recipients = [pid for pid in range(self.num_senders) if pid != self.pid]
            return Action(
                sends=Broadcast(
                    recipients, ("general", self.value), MessageKind.VALUE
                )
            )
        action = self.inner.on_round(round_number, forwarded)
        if hasattr(self.inner, "attachment") and self.inner.attachment is not None:
            self.value = self.inner.attachment
        return action


class ReceiverProcess(Process):
    """A system process outside the sender set: holds a value, decides at
    the predetermined decision round."""

    def __init__(self, pid: int, t: int, decide_round: int):
        super().__init__(pid, t)
        self.value: Any = DEFAULT_VALUE
        self.decide_round = decide_round

    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        return self.decide_round

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        for envelope in inbox:
            if envelope.kind is MessageKind.VALUE:
                self.value = envelope.payload[1]
        if round_number >= self.decide_round:
            return Action.halting()
        return Action.idle()


@dataclass
class AgreementOutcome:
    """Result of one Byzantine agreement execution."""

    decisions: Dict[int, Any]       # pid -> decided value (non-crashed only)
    general_crashed: bool
    metrics: Metrics
    work_messages: int              # messages counting the value informs

    @property
    def agreement(self) -> bool:
        values = set(self.decisions.values())
        return len(values) <= 1

    @property
    def decided_value(self) -> Optional[Any]:
        values = set(self.decisions.values())
        return next(iter(values)) if len(values) == 1 else None

    def valid_for(self, general_value: Any) -> bool:
        """Validity: if the general never crashed, everyone decided its value."""
        if self.general_crashed:
            return True
        return self.agreement and self.decided_value == general_value


class ByzantineAgreement:
    """Builder/runner for the Section 5 construction.

    ``n_system`` is the paper's ``n`` (total processes to be informed);
    ``t`` is the failure bound, so ``t + 1`` senders run the work
    protocol on ``n_system`` units.
    """

    def __init__(
        self,
        n_system: int,
        t: int,
        *,
        protocol: str = "B",
    ):
        if t + 1 > n_system:
            raise ConfigurationError(
                f"need at least t+1={t + 1} processes, got n_system={n_system}"
            )
        self.n_system = n_system
        self.t = t
        self.num_senders = t + 1
        self.protocol = protocol.upper()

    # ---- construction ------------------------------------------------------

    def _build_inner(self, pid: int, epoch: int):
        n, senders = self.n_system, self.num_senders
        if self.protocol == "A":
            return ProtocolAProcess(pid, senders, n, epoch=epoch)
        if self.protocol == "B":
            return ProtocolBProcess(pid, senders, n, epoch=epoch)
        if self.protocol == "C":
            return ProtocolCProcess(pid, senders, n, epoch=epoch)
        raise ConfigurationError(
            f"Byzantine agreement supports protocols A, B, C; got {self.protocol!r}"
        )

    def decide_round(self, epoch: int = 1) -> int:
        probe = self._build_inner(0, epoch)
        return epoch + probe.deadlines.retirement_bound() + 2 * self.t + 4

    def run(
        self,
        general_value: Any,
        *,
        adversary: Optional[Adversary] = None,
        seed: int = 0,
        max_steps: int = 5_000_000,
        trace=None,
    ) -> AgreementOutcome:
        epoch = 1  # round 0 is the general's broadcast
        decide = self.decide_round(epoch)
        processes: List[Process] = []
        senders: List[SenderProcess] = []
        for pid in range(self.num_senders):
            inner = self._build_inner(pid, epoch)
            sender = SenderProcess(
                inner, is_general=(pid == 0), num_senders=self.num_senders
            )
            senders.append(sender)
            processes.append(sender)
        for pid in range(self.num_senders, self.n_system):
            processes.append(ReceiverProcess(pid, self.n_system, decide))
        senders[0].set_value(general_value)

        def inform(pid: int, unit: int, round_number: int) -> Optional[Broadcast]:
            target = unit - 1
            if target == pid:
                return None
            value = senders[pid].value
            return Broadcast((target,), ("inform", value), MessageKind.VALUE)

        tracker = WorkTracker(self.n_system)
        engine = Engine(
            processes,
            tracker=tracker,
            adversary=adversary,
            seed=seed,
            strict_invariants=False,
            unit_effect=inform,
            max_steps=max_steps,
            trace=trace,
        )
        result = engine.run()
        decisions = {
            p.pid: getattr(p, "value") for p in processes if not p.crashed
        }
        return AgreementOutcome(
            decisions=decisions,
            general_crashed=processes[0].crashed,
            metrics=result.metrics,
            work_messages=result.metrics.messages_total,
        )
