"""The reference delivery store of the equivalence tests.

:class:`ListMailboxes` keeps one envelope list per recipient: a
point-to-point post appends one ``Envelope`` and a broadcast one
``Envelope`` per recipient.  It is the plainest store with the engine's
surface (``post_p2p``, ``post_broadcast``, ``drain``, ``head_stamp``,
``clear``), so the oracles run the engine on it and compare with the row
store (:class:`repro.sim.columnar.ColumnarMailboxes`) bit for bit.

Each mailbox is sorted by stamp: posts happen at the current processed
round and processed rounds strictly increase, so the head is
``box[0]`` and delivery splits off a prefix.
"""

from __future__ import annotations

import contextlib
from typing import Any, List, Optional

import repro.core.registry as registry
from repro.sim.actions import Envelope, MessageKind
from repro.sim.engine import Engine


class ListMailboxes:
    """Per-recipient envelope lists, indexed by pid.  ``boxes`` is
    public so reference engines can scan it."""

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
        """One envelope per set bit of ``mask`` (already live-restricted)."""
        while mask:
            low = mask & -mask
            mask ^= low
            dst = low.bit_length() - 1
            self.boxes[dst].append(Envelope(src, dst, payload, kind, sent_round))

    def head_stamp(self, pid: int) -> Optional[int]:
        box = self.boxes[pid]
        return box[0].sent_round if box else None

    def drain(self, pid: int, round_number: int, receive: Optional[int]) -> list:
        """Split off all mail stamped before ``round_number``, at most
        ``receive`` envelopes; the rest stay queued, oldest first."""
        box = self.boxes[pid]
        split = 0
        while split < len(box) and box[split].sent_round < round_number:
            split += 1
        if receive is not None and split > receive:
            split = receive
        ready = box[:split]
        del box[:split]
        return ready

    def clear(self, pid: int) -> None:
        """Retirement: drop everything currently queued for ``pid``."""
        self.boxes[pid].clear()


class ListStoreEngine(Engine):
    """The sync engine on the reference store, everything else shared.
    A subclass can swap the store through :attr:`store_class`."""

    store_class = ListMailboxes

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._store = self.store_class(self.t)


@contextlib.contextmanager
def reference_engine():
    """Run every sync ``Scenario`` of the block on :class:`ListStoreEngine`."""
    original = registry.Engine
    registry.Engine = ListStoreEngine
    try:
        yield
    finally:
        registry.Engine = original
