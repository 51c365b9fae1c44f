"""Message and per-round action types for the synchronous simulator.

The paper's model lets a process, in one time unit, perform one unit of
work and one round of communication.  A round action therefore carries at
most one work unit plus at most one :class:`Broadcast` (a process that
crashes mid-round delivers an adversary-chosen subset of it, which is
exactly the paper's "if process 0 crashes in the middle of a broadcast,
we assume only that some subset of the processes receive the message").

A :class:`Broadcast` is one shared payload/kind plus a bitset of
recipients; a point-to-point message is a one-recipient broadcast.  Both
engines keep it *un-expanded* end to end (one metrics record per
broadcast, one row of the sync store's row log per wide broadcast,
partial delivery as a recipients subset).  Protocol D's agreement phases
send Theta(t) identical copies per process per round, so not
materialising the copies is the hottest-path win of the whole simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from repro.sim.bitset import FrozenIntBitset, IntBitset, _BitsetBase


class MessageKind(str, Enum):
    """Classification of messages for accounting and reporting.

    Every kind is counted in the total message complexity; the split lets
    the benchmark tables show *where* a protocol spends its messages
    (e.g. Protocol C's poll traffic vs its ordinary reports).
    """

    PARTIAL_CHECKPOINT = "partial_checkpoint"  # Protocol A/B: (c) to own group
    FULL_CHECKPOINT = "full_checkpoint"        # Protocol A/B: (c, g)
    GO_AHEAD = "go_ahead"                      # Protocol B polling
    POLL = "poll"                              # Protocol C "are you alive?"
    POLL_REPLY = "poll_reply"                  # Protocol C liveness reply
    ORDINARY = "ordinary"                      # Protocol C knowledge transfer
    AGREEMENT = "agreement"                    # Protocol D phase broadcasts
    VALUE = "value"                            # Byzantine agreement informs
    CONTROL = "control"                        # anything else (baselines etc.)


class Envelope(NamedTuple):
    """A message in flight (or delivered).

    ``sent_round`` is the stamp round: the envelope is visible to the
    recipient's decisions strictly after ``sent_round``.  Every message
    a process receives is one of these, ``dst`` its own pid; the copies
    of one broadcast share the payload object.  The sync store's row log
    keeps one per wide broadcast with ``dst`` ``-1`` (it addresses a
    recipient mask) and hands each recipient its own copy.
    """

    src: int
    dst: int
    payload: Any
    kind: MessageKind
    sent_round: int


class Broadcast:
    """One shared-payload broadcast: ``payload``/``kind`` once, recipients
    as a packed bitset.

    The wire-format contract (see ``docs/protocols.md``): a broadcast is
    fully described by ``(recipients, payload, kind)``; metrics count
    ``len(recipients)`` messages of ``kind``, traces emit one ``send``
    event per recipient in ascending pid order, and each live recipient
    receives one :class:`Envelope` sharing the payload object.  Partial
    delivery (crash mid-broadcast) is recipients-subset selection via
    :meth:`restrict`, never per-copy re-allocation.
    """

    __slots__ = ("recipients", "payload", "kind")

    def __init__(
        self,
        recipients: Union[_BitsetBase, Iterable[int]],
        payload: Any,
        kind: MessageKind,
    ):
        # A frozen mask is kept as given: it cannot change under us.
        if type(recipients) is not FrozenIntBitset:
            if isinstance(recipients, _BitsetBase):
                recipients = FrozenIntBitset(recipients.to_int())
            else:
                recipients = FrozenIntBitset.from_iterable(recipients)
        self.recipients: FrozenIntBitset = recipients
        self.payload = payload
        self.kind = kind

    def __len__(self) -> int:
        return self.recipients._bits.bit_count()

    def __bool__(self) -> bool:
        return self.recipients._bits != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Broadcast):
            return (
                self.recipients == other.recipients
                and self.payload == other.payload
                and self.kind == other.kind
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Broadcast({set(self.recipients) or '{}'}, "
            f"{self.payload!r}, {self.kind!r})"
        )

    # ---- subset / remap (crash semantics, protocol embedding) --------

    def dsts(self) -> Tuple[int, ...]:
        """Recipient pids, ascending (the order copies are traced in)."""
        return tuple(self.recipients)

    def restrict(self, keep: Union[_BitsetBase, Iterable[int]]) -> "Broadcast":
        """The sub-broadcast delivered to ``recipients & keep``."""
        if not isinstance(keep, _BitsetBase):
            keep = FrozenIntBitset.from_iterable(keep)
        return Broadcast(self.recipients & keep, self.payload, self.kind)

    def remap(self, pid_of: Sequence[int]) -> "Broadcast":
        """Translate every recipient ``d`` to ``pid_of[d]`` (used when a
        protocol embeds another over a rank-compressed pid space)."""
        return Broadcast(
            IntBitset.from_iterable(pid_of[dst] for dst in self.recipients),
            self.payload,
            self.kind,
        )


@dataclass
class Action:
    """Everything a process does in one round.

    Attributes:
        work: work unit performed this round (1-based), or ``None``.
        sends: this round's one broadcast, or ``None``.
        halt: if true the process terminates (retires) at the end of the
            round, after its work and sends take effect.

    The engine and the adversaries only read an action, never change it,
    so protocols may share one instance (:meth:`idle` always does).
    """

    work: Optional[int] = None
    sends: Optional[Broadcast] = None
    halt: bool = False

    @classmethod
    def idle(cls) -> "Action":
        """The action that does nothing (the process merely waits)."""
        return _IDLE

    @classmethod
    def halting(cls, sends: Optional[Broadcast] = None) -> "Action":
        """Terminate, optionally after a final broadcast."""
        return cls(sends=sends, halt=True)


_IDLE = Action()
