"""The early-stopping agreement round shared by Protocol D and D-dynamic.

Both protocols run the crash-tolerant exchange of [Dolev-Reischuk-Strong]:
every round each process broadcasts its view plus a *decided* flag, and a
receiving process

1. keeps the AGREEMENT messages whose phase key equals its own (D's
   phase index, D-dynamic's cycle start);
2. dedups per sender: the last message wins, except that a flagged
   message is never displaced by an unflagged one;
3. folds the unflagged views of senders in its live-set snapshot into
   its own view, each field intersected or unioned;
4. adopts outright the view of the highest flagged sender, if any;
5. after the grace round, removes the senders it did not hear from; and
6. decides once its live-set estimate is stable across two rounds.

:class:`AgreementLayout` says where a protocol's payload keeps the key,
the flag and the view fields.  The fold has two backends with one
result: a python-int backend for list inboxes (and for platforms without
numpy), and a word-row backend for the columnar store's inboxes, which
reads the store's columns and a per-run :class:`DecodedPayloads` cache
without materialising a single envelope.
``tests/test_differential_fuzz.py`` pins the two backends to each other.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

from repro.sim.actions import Action, MessageKind
from repro.sim.bitset import IntBitset
from repro.sim.columnar import KIND_CODES, np
from repro.sim.process import Process

_AGREEMENT = MessageKind.AGREEMENT


class AgreementLayout(NamedTuple):
    """Where an agreement payload keeps its parts.

    ``payload[0]`` is the phase key and ``payload[flag]`` the decided
    flag.  Each ``(index, attribute, intersect)`` in ``fields`` folds the
    frozen bitset ``payload[index]`` into the process attribute of that
    name: intersected when ``intersect``, unioned otherwise.
    """

    #: Name of the decoded-payload cache on the columnar store.
    cache_name: str
    #: numpy dtype of the decoded key column.  Fixed-width ints keep the
    #: per-inbox key compare vectorized; ``object`` admits keys that may
    #: outgrow int64 (round numbers).
    key_dtype: Any
    flag: int
    fields: Tuple[Tuple[int, str, bool], ...]


class AgreementProcess(Process):
    """A process that runs the shared agreement round.

    Subclasses set :attr:`layout`, keep the agreement state (``_U``,
    ``_u_snapshot``, ``_round_var``, ``_agree_done``) and implement
    :meth:`_field_widths`, ``_agree_broadcast(flag)`` and
    ``_finish_agreement(round_number, sends)``.
    """

    columnar_fold = True
    layout: AgreementLayout

    def _field_widths(self) -> Tuple[int, ...]:
        """uint64 words per view field (sizes the columnar cache rows)."""
        raise NotImplementedError

    def _agree_round(self, round_number: int, inboxes: List, key) -> Action:
        """Fold ``inboxes`` (drained in order) for phase ``key``, then decide."""
        layout = self.layout
        snapshot = self._u_snapshot.to_int()
        admitted_from = snapshot & ~(1 << self.pid)
        views = [getattr(self, attribute).to_int() for _, attribute, _ in layout.fields]
        # Columnar inboxes carry their store; every inbox of a run comes
        # from the same store.
        store = getattr(inboxes[0], "store", None) if inboxes else None
        if store is None:
            heard, adopted = _fold_ints(inboxes, key, layout, admitted_from, views)
        else:
            heard, adopted = _fold_words(store, inboxes, key, self, admitted_from, views)
        if adopted is not None:
            for index, attribute, _ in layout.fields:
                setattr(self, attribute, adopted[index].thaw())
            self._agree_done = True
        else:
            for (_, attribute, _), bits in zip(layout.fields, views):
                setattr(self, attribute, IntBitset(bits))
        if self._round_var >= 1:
            self._U -= IntBitset(snapshot & ~(heard | (1 << self.pid)))
        if (
            not self._agree_done
            and self._round_var >= 1
            and self._U == self._u_snapshot
        ):
            self._agree_done = True
        self._round_var += 1
        if self._agree_done:
            return self._finish_agreement(round_number, self._agree_broadcast(True))
        self._u_snapshot = self._U.copy()
        return Action(sends=self._agree_broadcast(False))


# ---- python-int backend ---------------------------------------------------


def _fold_ints(
    inboxes: List, key, layout: AgreementLayout, admitted_from: int, views: List[int]
) -> Tuple[int, Optional[tuple]]:
    """Fold envelope inboxes into ``views`` (in place).

    Returns ``(heard, adopted)``: the mask of senders heard from in phase
    ``key`` and the adopted flagged payload, if any (``views`` is then
    left unfolded - adoption replaces it).  Inboxes are stamp-sorted and
    successive drains continue each other, so iteration order is stamp
    order.
    """
    flag = layout.flag
    received = {}
    for inbox in inboxes:
        for envelope in inbox:
            if envelope.kind is not _AGREEMENT:
                continue
            payload = envelope.payload
            if payload[0] != key:
                continue
            src = envelope.src
            previous = received.get(src)
            if previous is None or payload[flag] or not previous[flag]:
                received[src] = payload
    heard = 0
    adopted = None
    adopted_src = -1
    admitted = []
    for src, payload in received.items():
        heard |= 1 << src
        if payload[flag]:
            if src > adopted_src:
                adopted, adopted_src = payload, src
        elif (admitted_from >> src) & 1:
            admitted.append(payload)
    if adopted is None:
        for position, (index, _, intersect) in enumerate(layout.fields):
            bits = views[position]
            if intersect:
                for payload in admitted:
                    bits &= payload[index]._bits
            else:
                for payload in admitted:
                    bits |= payload[index]._bits
            views[position] = bits
    return heard, adopted


# ---- word-row backend -----------------------------------------------------


class DecodedPayloads:
    """Per-run decoded agreement payloads, one row per payload id.

    One instance lives on the columnar store (shared by all processes of
    a run), so each payload is decoded into word rows once - not once per
    recipient.  Non-AGREEMENT payload ids keep the key ``-1``, which
    equals no phase key (keys are non-negative).
    """

    __slots__ = ("layout", "widths", "filled", "key", "flag", "words")

    def __init__(self, layout: AgreementLayout, widths: Tuple[int, ...]):
        self.layout = layout
        self.widths = widths
        self.filled = 0
        capacity = 256
        self.key = np.full(capacity, -1, dtype=layout.key_dtype)
        self.flag = np.zeros(capacity, dtype=bool)
        self.words = [np.zeros((capacity, width), dtype=np.uint64) for width in widths]

    def ensure(self, store) -> None:
        """Decode every payload interned since the last call."""
        total = store.payload_count()
        filled = self.filled
        if filled >= total:
            return
        if total > len(self.key):
            capacity = len(self.key)
            while capacity < total:
                capacity *= 2
            self.key = _grown(self.key, capacity, filled, -1)
            self.flag = _grown(self.flag, capacity, filled, False)
            self.words = [_grown(words, capacity, filled, 0) for words in self.words]
        code = KIND_CODES[_AGREEMENT]
        flag = self.layout.flag
        fields = [
            (index, words, width * 8)
            for (index, _, _), words, width in zip(
                self.layout.fields, self.words, self.widths
            )
        ]
        for payload_id in range(filled, total):
            if store.payload_kind_code(payload_id) != code:
                continue
            payload = store.payload(payload_id)
            self.key[payload_id] = payload[0]
            self.flag[payload_id] = payload[flag]
            for index, words, size in fields:
                words[payload_id] = np.frombuffer(
                    payload[index]._bits.to_bytes(size, "little"), dtype="<u8"
                )
        self.filled = total


def _grown(array, capacity: int, filled: int, fill):
    grown = np.full((capacity,) + array.shape[1:], fill, dtype=array.dtype)
    grown[:filled] = array[:filled]
    return grown


def _fold_words(
    store, inboxes: List, key, process: AgreementProcess, admitted_from: int,
    views: List[int],
) -> Tuple[int, Optional[tuple]]:
    """:func:`_fold_ints` over columnar inboxes: the same rules, applied
    to the store's columns and the decoded word rows."""
    layout = process.layout
    cache = store.cache(
        layout.cache_name, lambda: DecodedPayloads(layout, process._field_widths())
    )
    cache.ensure(store)
    if len(inboxes) == 1:
        srcs, ids = inboxes[0].srcs(), inboxes[0].payload_ids()
    else:
        srcs = np.concatenate([inbox.srcs() for inbox in inboxes])
        ids = np.concatenate([inbox.payload_ids() for inbox in inboxes])
    # The key filter doubles as the kind filter (non-AGREEMENT ids: -1).
    keep = cache.key[ids] == key
    if not keep.all():
        srcs, ids = srcs[keep], ids[keep]
    if len(ids) == 0:
        return 0, None
    flags = cache.flag[ids]
    winners = _dedup_last_wins(srcs, flags)
    w_src, w_flag, w_ids = srcs[winners], flags[winners], ids[winners]
    width = store.words
    heard = _srcs_mask(w_src, width)
    if w_flag.any():
        # Winners ascend by src, so the last flagged one is the highest.
        return heard, store.payload(int(w_ids[np.nonzero(w_flag)[0][-1]]))
    admitted = _bit_test(_int_to_words(admitted_from, width), w_src).astype(bool)
    if admitted.any():
        rows = w_ids[admitted]
        for position, ((_, _, intersect), words) in enumerate(
            zip(layout.fields, cache.words)
        ):
            if intersect:
                views[position] &= _words_to_int(np.bitwise_and.reduce(words[rows], axis=0))
            else:
                views[position] |= _words_to_int(np.bitwise_or.reduce(words[rows], axis=0))
    return heard, None


def _int_to_words(bits: int, width: int):
    """Little-endian uint64 word view of a packed bitset int."""
    return np.frombuffer(bits.to_bytes(width * 8, "little"), dtype="<u8")


def _words_to_int(words) -> int:
    return int.from_bytes(np.ascontiguousarray(words, dtype="<u8").tobytes(), "little")


def _srcs_mask(srcs, width: int) -> int:
    """The packed-int set ``{s for s in srcs}`` built word-parallel."""
    words = np.zeros(width, dtype=np.uint64)
    np.bitwise_or.at(
        words, srcs >> 6, np.left_shift(np.uint64(1), (srcs & 63).astype(np.uint64))
    )
    return _words_to_int(words)


def _bit_test(words, members):
    """1 where ``members``' bit is set in ``words``."""
    return (words[members >> 6] >> (members & 63).astype(np.uint64)) & np.uint64(1)


def _dedup_last_wins(srcs, preferred):
    """Indices of the winning item per source, sources ascending.

    For each source the last preferred (flagged) item wins if there is
    one, else the last item: ``lexsort`` orders by (source, preferred,
    position) and the final entry of each source group is the winner.
    """
    count = len(srcs)
    order = np.lexsort((np.arange(count), preferred, srcs))
    sorted_srcs = srcs[order]
    last = np.empty(count, dtype=bool)
    last[:-1] = sorted_srcs[1:] != sorted_srcs[:-1]
    last[-1] = True
    return order[last]
