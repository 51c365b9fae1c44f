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
the flag and the view fields.  One python-int fold (:func:`_fold_pairs`)
applies these rules to the ``(src, payload)`` pairs of a recipient's
mail, fed by one of two backends with one result:

* :func:`_fold_ints` walks envelope inboxes.  It serves the list store
  and is the only backend on platforms without numpy;
* :func:`_fold_columnar` serves the columnar store.  It reads the
  store's columns and a per-run :class:`DecodedPayloads` cache of keys
  and flags, so no envelope is materialised.

In a synchronous round almost every recipient folds the same *window*
of broadcasts - the rows stamped ``s`` - minus its own row.  So the
columnar backend folds a round once (:class:`SharedWindows`): for each
(stamp, phase key) it checks the window once, and for each admitted set
it builds, once, per view field the prefix and suffix folds over the
admitted senders' views.  A recipient's fold is then leave-one-out,
``prefix[i] op suffix[i + 1]``: one bitwise op per field instead of a
fold over ``t`` rows.  It applies only when all of these hold; any other
inbox goes to :func:`_fold_pairs`:

1. no buffered inbox but the last has a row with the phase key (the
   older ones hold, at most, the previous phase's decided broadcasts),
   and all rows of the last share one stamp ``s``;
2. every row stamped ``s`` (a contiguous range, as stamps never
   decrease) is an unflagged AGREEMENT broadcast with this phase key,
   and their senders strictly ascend, so each sender has one row;
3. the recipient's rows miss at most one row of that window (the
   missing row id is the difference of the two row-id sums), so its
   heard mask is the window's minus that row's sender;
4. of the window's rows from the admitted set plus the recipient, at
   most one is left out: the missing row or the recipient's own.

Rounds with crashes during agreement break rules 3 and 4 for many
recipients (their snapshots diverge, and a crash-censored broadcast
leaves rows missing); those folds take :func:`_fold_pairs`.

``tests/test_agreement_fold.py`` pins the two backends to each other fold
by fold; ``tests/test_differential_fuzz.py`` pins whole runs of the two
stores to each other.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import and_, or_
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.sim.actions import Action, MessageKind
from repro.sim.bitset import IntBitset
from repro.sim.columnar import KIND_CODES, ColumnarInbox, np
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
    ``_agree_broadcast(flag)`` and ``_finish_agreement(round_number,
    sends)``.
    """

    columnar_fold = True
    layout: AgreementLayout

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
            heard, adopted = _fold_columnar(store, inboxes, key, self, admitted_from, views)
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


# ---- the python-int fold and its envelope backend -------------------------


def _fold_ints(
    inboxes: List, key, layout: AgreementLayout, admitted_from: int, views: List[int]
) -> Tuple[int, Optional[tuple]]:
    """:func:`_fold_pairs` over envelope inboxes.  Inboxes are
    stamp-sorted and successive drains continue each other, so iteration
    order is stamp order."""
    return _fold_pairs(
        (
            (envelope.src, envelope.payload)
            for inbox in inboxes
            for envelope in inbox
            if envelope.kind is _AGREEMENT and envelope.payload[0] == key
        ),
        layout, admitted_from, views,
    )


def _fold_pairs(
    pairs: Iterable[Tuple[int, tuple]], layout: AgreementLayout, admitted_from: int,
    views: List[int],
) -> Tuple[int, Optional[tuple]]:
    """Fold the ``(src, payload)`` pairs of phase ``key``'s AGREEMENT
    messages, in stamp order, into ``views`` (in place).

    Returns ``(heard, adopted)``: the mask of senders heard from in the
    phase and the adopted flagged payload, if any (``views`` is then left
    unfolded - adoption replaces it).
    """
    flag = layout.flag
    received = {}
    for src, payload in pairs:
        previous = received.get(src)
        if previous is None or payload[flag] or not previous[flag]:
            received[src] = payload
    heard = 0
    adopted = None
    adopted_src = -1
    admitted = []
    for src, payload in received.items():
        bit = 1 << src
        heard |= bit
        if payload[flag]:
            if src > adopted_src:
                adopted, adopted_src = payload, src
        elif admitted_from & bit:
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


# ---- columnar backend -----------------------------------------------------


class DecodedPayloads:
    """Per-run decoded keys and flags of agreement payloads, one entry
    per payload id, plus the run's :class:`SharedWindows`.

    One instance lives on the columnar store (shared by all processes of
    a run), so each payload is decoded once - not once per recipient.
    Non-AGREEMENT payload ids keep the key ``-1``, which equals no phase
    key (keys are non-negative).
    """

    __slots__ = ("layout", "filled", "key", "flag", "windows")

    def __init__(self, layout: AgreementLayout):
        self.layout = layout
        self.windows = SharedWindows()
        self.filled = 0
        capacity = 256
        self.key = np.full(capacity, -1, dtype=layout.key_dtype)
        self.flag = np.zeros(capacity, dtype=bool)

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
        code = KIND_CODES[_AGREEMENT]
        flag = self.layout.flag
        for payload_id in range(filled, total):
            if store.payload_kind_code(payload_id) == code:
                payload = store.payload(payload_id)
                self.key[payload_id] = payload[0]
                self.flag[payload_id] = payload[flag]
        self.filled = total


def _grown(array, capacity: int, filled: int, fill):
    grown = np.full(capacity, fill, dtype=array.dtype)
    grown[:filled] = array[:filled]
    return grown


def _fold_columnar(
    store, inboxes: List, key, process: AgreementProcess, admitted_from: int,
    views: List[int],
) -> Tuple[int, Optional[tuple]]:
    """:func:`_fold_pairs` for columnar inboxes: by leave-one-out over a
    round-shared window when its four rules hold, else over the inboxes'
    columns."""
    layout = process.layout
    cache = store.cache(layout.cache_name, lambda: DecodedPayloads(layout))
    cache.ensure(store)
    windows = cache.windows
    shared = windows.fold(store, cache, inboxes, key, process.pid, admitted_from, views)
    if shared is not None:
        windows.shared += 1
        return shared
    windows.fallback += 1
    # The python-int fold over the inboxes' columns; the key filter
    # doubles as the kind filter (non-AGREEMENT ids: -1).
    pairs = []
    for inbox in inboxes:
        ids = inbox.payload_ids()
        keep = cache.key[ids] == key
        pairs.append(zip(inbox.srcs()[keep].tolist(), map(store.payload, ids[keep].tolist())))
    return _fold_pairs(chain.from_iterable(pairs), layout, admitted_from, views)


# ---- round-shared windows --------------------------------------------------


class _Folds(NamedTuple):
    """A window's rows folded over one admitted set.

    ``index`` maps each admitted sender to its position ``i`` among the
    admitted rows.  Per view field, ``prefix[i]`` folds admitted rows
    ``[0, i)`` and ``suffix[i]`` rows ``[i, m)``; ``suffix`` carries one
    more identity, so cut ``m`` (no row left out) needs no special case.
    """

    index: Dict[int, int]
    prefix: List[List[int]]
    suffix: List[List[int]]


class _Window(NamedTuple):
    """The rows stamped ``s`` of one phase key, for which rule 2 holds.

    ``srcs[k]`` and ``payloads[k]`` belong to the window's ``k``-th row;
    ``heard`` is the mask of every sender; ``folds`` holds one
    :class:`_Folds` per admitted set plus recipient, built on first use.
    """

    heard: int
    srcs: List[int]
    payloads: List[tuple]
    folds: Dict[int, _Folds]


class SharedWindows:
    """Round-shared agreement folds for one store and one layout.

    A window is keyed by the first row of its stamp and the phase key;
    its folds by the admitted set plus the recipient
    (``admitted_from | 1 << pid``), so every recipient with the same
    snapshot shares one.  A window of a newer stamp drops every older
    one, so memory holds one round.  ``shared`` and ``fallback`` count
    the folds that took this path and those that did not.
    """

    __slots__ = ("span", "newest", "windows", "shared", "fallback")

    def __init__(self):
        self.span = range(0)
        self.newest = -1
        self.windows: Dict[tuple, Optional[_Window]] = {}
        self.shared = 0
        self.fallback = 0

    def fold(
        self, store, cache: DecodedPayloads, inboxes: List, key, pid: int,
        admitted_from: int, views: List[int],
    ) -> Optional[Tuple[int, None]]:
        """:func:`_fold_columnar` by leave-one-out, or ``None`` (nothing
        folded) when one of the four rules fails."""
        # Rule 1; the last inbox's keys are checked with its window.
        for inbox in inboxes[:-1]:
            if (cache.key[inbox.payload_ids()] == key).any():
                return None
        rows = inboxes[-1].rows
        first = int(rows[0])
        span = self.span
        if not span.start <= first < span.stop:
            span = self.span = store.stamp_window(first)
            if span.start > self.newest:
                self.newest = span.start
                self.windows.clear()
        # Rule 3: the drained rows ascend, so they lie in the window
        # when the last one does.
        absent = len(span) - len(rows)
        if int(rows[-1]) >= span.stop or absent > 1:
            return None
        window_key = (span.start, key)
        if window_key in self.windows:
            window = self.windows[window_key]
        else:
            window = self.windows[window_key] = _window(store, cache, span, key)
        if window is None:
            return None
        # Rule 4: the rows left out of the fold are the recipient's own
        # and the missing one, each only if it is in the window and from
        # an admitted sender (the recipient counts as one here).
        members = admitted_from | (1 << pid)
        heard = window.heard
        left_out = {pid} if (heard >> pid) & 1 else set()
        if absent:
            row = (span.start + span.stop - 1) * len(span) // 2 - int(rows.sum())
            missing = window.srcs[row - span.start]
            heard &= ~(1 << missing)
            if (members >> missing) & 1:
                left_out.add(missing)
        if len(left_out) > 1:
            return None
        folds = window.folds.get(members)
        if folds is None:
            folds = window.folds[members] = _folds(window, members, cache.layout)
        cut = folds.index[left_out.pop()] if left_out else len(folds.index)
        for position, ((_, _, intersect), prefix, suffix) in enumerate(
            zip(cache.layout.fields, folds.prefix, folds.suffix)
        ):
            if intersect:
                views[position] &= prefix[cut] & suffix[cut + 1]
            else:
                views[position] |= prefix[cut] | suffix[cut + 1]
        return heard, None


def _window(store, cache: DecodedPayloads, span: range, key) -> Optional[_Window]:
    """The rows ``span`` as a window of phase ``key``, or ``None`` when
    rule 2 fails for them."""
    # Addressed to no one (dst -1): read through its columns only.
    rows = ColumnarInbox(store, -1, np.arange(span.start, span.stop))
    srcs, ids = rows.srcs(), rows.payload_ids()
    if not (cache.key[ids] == key).all() or cache.flag[ids].any():
        return None
    if not (srcs[1:] > srcs[:-1]).all():
        return None
    src_list = srcs.tolist()
    # The senders are distinct, so their bits sum to the heard mask.
    heard = sum(1 << src for src in src_list)
    payloads = [store.payload(payload_id) for payload_id in ids.tolist()]
    return _Window(heard, src_list, payloads, {})


def _folds(window: _Window, members: int, layout: AgreementLayout) -> _Folds:
    admitted = [
        (src, payload)
        for src, payload in zip(window.srcs, window.payloads)
        if (members >> src) & 1
    ]
    prefix, suffix = [], []
    for index, _, intersect in layout.fields:
        op, identity = (and_, -1) if intersect else (or_, 0)
        bits = [payload[index]._bits for _, payload in admitted]
        prefix.append(list(accumulate(bits, op, initial=identity)))
        suffix.append(list(accumulate(reversed(bits), op, initial=identity))[::-1] + [identity])
    return _Folds(
        {src: position for position, (src, _) in enumerate(admitted)}, prefix, suffix
    )
