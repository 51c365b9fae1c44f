"""Message and per-round action types for the synchronous simulator.

The paper's model lets a process, in one time unit, perform one unit of
work and one round of communication.  A round action therefore carries at
most one work unit plus one *send batch* (the batch models one broadcast;
a process that crashes mid-round delivers an adversary-chosen subset of
the batch, which is exactly the paper's "if process 0 crashes in the
middle of a broadcast, we assume only that some subset of the processes
receive the message").

Send batches come in two spellings:

* :class:`Broadcast` - the packed form: one shared payload/kind plus a
  bitset of recipients.  This is what every protocol in the repository
  emits and what both engines keep *un-expanded* end to end (one metrics
  record per batch, one row of the sync store's row log per wide
  broadcast, partial delivery as a recipients-subset).  Protocol D's
  agreement phases send Theta(t) identical copies per process per round,
  so not materialising the copies is the hottest-path win of the whole
  simulator.
* ``List[Send]`` - the legacy per-copy form, kept as the compatibility
  path for out-of-tree protocols and for batches that genuinely mix
  payloads or kinds (Protocol C's poll replies).  The engine auto-packs
  a uniform, ascending legacy list back into a :class:`Broadcast` at
  commit time, so both spellings take the packed path and render
  identically in metrics, traces and :func:`summarize_sends`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

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


class Send(NamedTuple):
    """An outgoing message requested by a process in the current round.

    The per-copy spelling: one is allocated per point-to-point copy of a
    legacy (list-form) batch, and lazily when a :class:`Broadcast` is
    iterated for compatibility (adversary inspection, tests).
    """

    dst: int
    payload: Any
    kind: MessageKind = MessageKind.CONTROL


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
    fully described by ``(recipients, payload, kind)``; its observable
    behaviour - metrics, traces, mailbox contents - is *defined* as that
    of the expanded ``[Send(d, payload, kind) for d in recipients]``
    list with recipients in ascending pid order.  Partial delivery
    (crash mid-broadcast) is recipients-subset selection via
    :meth:`restrict`, never per-copy re-allocation.

    Sequence-compatible for inspection: ``len``, truthiness, ascending
    iteration yielding :class:`Send` copies, and indexing.  Hot paths
    should use :attr:`recipients` / :meth:`dsts` instead of iterating
    ``Send`` objects into existence.
    """

    __slots__ = ("recipients", "payload", "kind")

    def __init__(
        self,
        recipients: Union[_BitsetBase, Iterable[int]],
        payload: Any,
        kind: MessageKind,
    ):
        if isinstance(recipients, _BitsetBase):
            recipients = FrozenIntBitset(recipients.to_int())
        else:
            recipients = FrozenIntBitset.from_iterable(recipients)
        self.recipients: FrozenIntBitset = recipients
        self.payload = payload
        self.kind = kind

    # ---- sequence compatibility (the expanded-list contract) ---------

    def __len__(self) -> int:
        return len(self.recipients)

    def __bool__(self) -> bool:
        return bool(self.recipients)

    def __iter__(self) -> Iterator[Send]:
        payload, kind = self.payload, self.kind
        for dst in self.recipients:
            yield Send(dst, payload, kind)

    def __getitem__(self, index):
        selected = self.dsts()[index]
        if isinstance(index, slice):
            return [Send(dst, self.payload, self.kind) for dst in selected]
        return Send(selected, self.payload, self.kind)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Broadcast):
            return (
                self.recipients == other.recipients
                and self.payload == other.payload
                and self.kind == other.kind
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Broadcast({set(self.recipients) or '{}'}, "
            f"{self.payload!r}, {self.kind!r})"
        )

    # ---- subset / remap (crash semantics, protocol embedding) --------

    def dsts(self) -> Tuple[int, ...]:
        """Recipient pids, ascending (the expanded batch's dst order)."""
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


#: What :attr:`Action.sends` holds: the packed or the legacy spelling.
SendBatch = Union[Broadcast, List[Send]]


def pack_sends(sends: SendBatch) -> Optional[Broadcast]:
    """Pack a legacy list into a :class:`Broadcast` when that is exactly
    equivalent: uniform payload identity and kind, strictly ascending
    destinations (so trace order is preserved).  Returns ``None`` when
    the batch genuinely needs the per-copy path; a :class:`Broadcast`
    passes through unchanged."""
    if isinstance(sends, Broadcast):
        return sends
    if not sends:
        return None
    first = sends[0]
    payload, kind = first.payload, first.kind
    mask = 0
    last = -1
    for send in sends:
        dst = send.dst
        if dst <= last or send.payload is not payload or send.kind is not kind:
            return None
        last = dst
        mask |= 1 << dst
    return Broadcast(FrozenIntBitset(mask), payload, kind)


def as_send_list(sends: SendBatch) -> List[Send]:
    """The legacy per-copy spelling of either batch form (expanding a
    :class:`Broadcast` into ascending ``Send`` copies)."""
    if isinstance(sends, Broadcast):
        return list(sends)
    return sends


def iter_dsts(sends: SendBatch) -> Iterator[int]:
    """Destinations of a batch in committed order, without materialising
    ``Send`` copies for the packed spelling."""
    if isinstance(sends, Broadcast):
        return iter(sends.recipients)
    return (send.dst for send in sends)


@dataclass
class Action:
    """Everything a process does in one round.

    Attributes:
        work: work unit performed this round (1-based), or ``None``.
        sends: this round's send batch - a packed :class:`Broadcast` or
            a legacy ``List[Send]`` (one broadcast either way).
        halt: if true the process terminates (retires) at the end of the
            round, after its work and sends take effect.
    """

    work: Optional[int] = None
    sends: SendBatch = field(default_factory=list)
    halt: bool = False

    @classmethod
    def idle(cls) -> "Action":
        """An action that does nothing (the process merely waits)."""
        return cls()

    @classmethod
    def halting(cls, sends: Optional[Union[Broadcast, Iterable[Send]]] = None) -> "Action":
        """Terminate, optionally after a final send batch."""
        if isinstance(sends, Broadcast):
            return cls(sends=sends, halt=True)
        return cls(sends=list(sends or ()), halt=True)


def broadcast(
    dsts: Union[_BitsetBase, Iterable[int]], payload: Any, kind: MessageKind
) -> Broadcast:
    """Build one packed broadcast batch: the same payload to every
    destination.  (Pre-broadcast-object code received an expanded
    ``List[Send]`` here; :class:`Broadcast` is sequence-compatible, and
    the engines treat the two spellings identically.)"""
    return Broadcast(dsts, payload, kind)


def summarize_sends(sends: SendBatch) -> Tuple[int, ...]:
    """Destinations of a send batch, for traces and tests.

    Renders identically for the packed and the legacy spelling of the
    same broadcast (ascending destinations either way).
    """
    return tuple(iter_dsts(sends))
