"""Pure-python delivery store for the sync engine: one list per recipient.

:class:`ListMailboxes` and :class:`repro.sim.columnar.ColumnarMailboxes`
share one surface - ``post_p2p``, ``post_broadcast``, ``drain``,
``head_stamp`` and ``clear`` - so the engine holds a single store and
never branches on which one it has.  This is the store for small ``t``,
for protocols without a columnar fold, and for platforms without numpy
(see :func:`repro.sim.columnar.resolve_fastpath`).

Each mailbox is sorted by stamp: posts happen at the current processed
round and processed rounds strictly increase, so the head is
``box[0]`` and delivery splits off a prefix.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim.actions import Envelope, EnvelopeView, MessageKind, SharedEnvelope


class ListMailboxes:
    """Per-recipient envelope lists, indexed by pid.

    Point-to-point posts append an ``Envelope`` tuple; a broadcast
    appends one ``EnvelopeView`` per recipient onto a single shared
    envelope.  ``boxes`` is public so reference engines can scan it.
    """

    __slots__ = ("boxes",)

    def __init__(self, t: int):
        self.boxes: List[list] = [[] for _ in range(t)]

    def post_p2p(
        self, src: int, dst: int, payload: Any, kind: MessageKind, sent_round: int
    ) -> None:
        self.boxes[dst].append(Envelope(src, dst, payload, kind, sent_round))

    def post_broadcast(
        self, src: int, payload: Any, kind: MessageKind, sent_round: int, mask: int
    ) -> None:
        """One view per set bit of ``mask`` (already live-restricted)."""
        boxes = self.boxes
        shared = SharedEnvelope(src, payload, kind, sent_round)
        # Inlined low-bit extraction: the recipient walk runs Theta(t)
        # times per broadcast, so the bitset generator's frame switches
        # would be a measurable share of commit time.
        while mask:
            low = mask & -mask
            mask ^= low
            dst = low.bit_length() - 1
            boxes[dst].append(EnvelopeView(shared, dst))

    def head_stamp(self, pid: int) -> Optional[int]:
        box = self.boxes[pid]
        return box[0].sent_round if box else None

    def drain(self, pid: int, round_number: int, receive: Optional[int]) -> list:
        """Split off all mail stamped before ``round_number``, at most
        ``receive`` envelopes; the rest stay queued, oldest first."""
        box = self.boxes[pid]
        if not box or box[0].sent_round >= round_number:
            return []
        split = len(box)
        for index, envelope in enumerate(box):
            if envelope.sent_round >= round_number:
                split = index
                break
        if receive is not None and split > receive:
            split = receive
        ready = box[:split]
        del box[:split]
        return ready

    def clear(self, pid: int) -> None:
        """Retirement: drop everything currently queued for ``pid``."""
        self.boxes[pid].clear()
