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
the flag and the view fields.  One python-int fold (:func:`_fold_messages`)
applies these rules to a recipient's mail, in delivery order.

In a synchronous round almost every recipient folds the same *window*
of broadcasts - the rows of the delivery store's segment stamped ``s``
(see :mod:`repro.sim.columnar`) - minus its own row.  So the round is
folded once (:class:`SharedWindows`): for each (stamp, phase key) the
window is checked once, and for each admitted set it builds, once, per
view field the prefix and suffix folds over the admitted senders'
views.  A recipient's fold is then leave-one-out, ``prefix[i] op
suffix[i + 1]``: one bitwise op per field instead of a fold over ``t``
rows.  It applies only when all of these hold; any other inbox goes to
:func:`_fold_messages` over its envelopes:

1. no buffered inbox but the last holds an AGREEMENT message with the
   phase key (the older ones hold, at most, the previous phase's
   decided broadcasts), and the last is one :class:`Span` of rows of
   one segment, with no lane mail;
2. every row of that segment is an unflagged AGREEMENT broadcast with
   this phase key, and their senders strictly ascend, so each sender
   has one row;
3. the recipient's span misses at most one row of the segment, so its
   heard mask is the window's minus that row's sender;
4. of the window's rows from the admitted set plus the recipient, at
   most one is left out: the missing row or the recipient's own.

Rule 1 reads no older record it need not: :class:`SharedWindows` keeps,
per closed segment, the set of phase keys of its AGREEMENT rows, built
once per run.  A :class:`Span` of an older inbox is cleared by one set
lookup per segment it covers; only a segment that holds the key is
scanned, over the span's rows (its skip excluded), so the answer is
exact.  Lane entries are checked one by one.

Rounds with crashes during agreement break rules 1, 3 and 4 for many
recipients (their snapshots diverge, and a crash-censored broadcast
leaves rows missing or lands in lanes); those folds take
:func:`_fold_messages`.

``tests/test_agreement_fold.py`` pins the shared window to
:func:`_fold_messages` fold by fold; ``tests/test_differential_fuzz.py``
pins whole runs to a list-per-recipient reference store.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import and_, or_
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.sim.actions import Action, MessageKind
from repro.sim.bitset import IntBitset
from repro.sim.columnar import RowInbox, Span
from repro.sim.process import Process

_AGREEMENT = MessageKind.AGREEMENT


class AgreementLayout(NamedTuple):
    """Where an agreement payload keeps its parts.

    ``payload[0]`` is the phase key and ``payload[flag]`` the decided
    flag.  Each ``(index, attribute, intersect)`` in ``fields`` folds the
    frozen bitset ``payload[index]`` into the process attribute of that
    name: intersected when ``intersect``, unioned otherwise.
    """

    #: Name of the round-shared windows' cache on the delivery store.
    cache_name: str
    flag: int
    fields: Tuple[Tuple[int, str, bool], ...]


class AgreementProcess(Process):
    """A process that runs the shared agreement round.

    Subclasses set :attr:`layout`, keep the agreement state (``_U``,
    ``_u_snapshot``, ``_round_var``, ``_agree_done``) and implement
    ``_agree_broadcast(flag)`` and ``_finish_agreement(round_number,
    sends)``.
    """

    layout: AgreementLayout

    def _agree_round(self, round_number: int, inboxes: List, key) -> Action:
        """Fold ``inboxes`` (drained in order) for phase ``key``, then decide."""
        layout = self.layout
        snapshot = self._u_snapshot.to_int()
        admitted_from = snapshot & ~(1 << self.pid)
        views = [getattr(self, attribute).to_int() for _, attribute, _ in layout.fields]
        heard, adopted = _fold(inboxes, key, self.pid, layout, admitted_from, views)
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


# ---- the fold ---------------------------------------------------------------


def _records(inbox: Iterable) -> Iterable:
    """An inbox's messages in delivery order, without materialising a
    row inbox's per-recipient envelopes."""
    return inbox.records() if type(inbox) is RowInbox else inbox


def _fold(
    inboxes: List, key, pid: int, layout: AgreementLayout, admitted_from: int,
    views: List[int],
) -> Tuple[int, Optional[tuple]]:
    """:func:`_fold_messages` over ``inboxes``, by leave-one-out over a
    round-shared window when its four rules hold.  Folds over inboxes
    that took rows are counted on the store's :class:`SharedWindows`."""
    store = next((inbox.store for inbox in inboxes if type(inbox) is RowInbox), None)
    if store is not None:
        windows = store.cache(layout.cache_name, SharedWindows)
        shared = windows.fold(store, inboxes, key, pid, layout, admitted_from, views)
        if shared is not None:
            windows.shared += 1
            return shared
        windows.fallback += 1
    return _fold_messages(
        chain.from_iterable(map(_records, inboxes)), key, layout, admitted_from, views
    )


def _fold_messages(
    messages: Iterable, key, layout: AgreementLayout, admitted_from: int,
    views: List[int],
) -> Tuple[int, Optional[tuple]]:
    """Fold phase ``key``'s AGREEMENT messages among ``messages`` (in
    delivery order; anything with ``src``, ``kind`` and ``payload``)
    into ``views`` (in place).

    Returns ``(heard, adopted)``: the mask of senders heard from in the
    phase and the adopted flagged payload, if any (``views`` is then left
    unfolded - adoption replaces it).
    """
    flag = layout.flag
    received = {}
    for message in messages:
        if message.kind is not _AGREEMENT:
            continue
        payload = message.payload
        if payload[0] != key:
            continue
        src = message.src
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

    A window is keyed by the first row of its segment and the phase key;
    its folds by the admitted set plus the recipient
    (``admitted_from | 1 << pid``), so every recipient with the same
    snapshot shares one.  A window of a newer segment drops every older
    one, so memory holds one round.  ``keys`` maps each closed segment's
    first row to the phase keys of its AGREEMENT rows (rule 1).
    ``shared`` and ``fallback`` count the folds that took this path and
    those that did not.
    """

    __slots__ = ("span", "newest", "windows", "keys", "shared", "fallback")

    def __init__(self):
        self.span = range(0)
        self.newest = -1
        self.windows: Dict[tuple, Optional[_Window]] = {}
        self.keys: Dict[int, Set] = {}
        self.shared = 0
        self.fallback = 0

    def fold(
        self, store, inboxes: List, key, pid: int, layout: AgreementLayout,
        admitted_from: int, views: List[int],
    ) -> Optional[Tuple[int, None]]:
        """:func:`_fold` by leave-one-out, or ``None`` (nothing folded)
        when one of the four rules fails."""
        # Rule 1.
        last = inboxes[-1]
        if type(last) is not RowInbox or len(last.items) != 1:
            return None
        rows = last.items[0]
        if type(rows) is not Span:
            return None
        for inbox in inboxes[:-1]:
            if self._holds(store, inbox, key):
                return None
        lo, hi, skip = rows
        span = self.span
        if not span.start <= lo < span.stop:
            span = self.span = store.segment(lo)
            if span.start > self.newest:
                self.newest = span.start
                self.windows.clear()
        # Rule 3.
        absent = len(span) - (hi - lo) + (skip >= 0)
        if hi > span.stop or absent > 1:
            return None
        window_key = (span.start, key)
        if window_key in self.windows:
            window = self.windows[window_key]
        else:
            window = self.windows[window_key] = _window(store, span, key, layout.flag)
        if window is None:
            return None
        # Rule 4: the rows left out of the fold are the recipient's own
        # and the missing one, each only if it is in the window and from
        # an admitted sender (the recipient counts as one here).
        members = admitted_from | (1 << pid)
        heard = window.heard
        left_out = {pid} if (heard >> pid) & 1 else set()
        if absent:
            row = span.start if lo > span.start else span.stop - 1 if hi < span.stop else skip
            missing = window.srcs[row - span.start]
            heard &= ~(1 << missing)
            if (members >> missing) & 1:
                left_out.add(missing)
        if len(left_out) > 1:
            return None
        folds = window.folds.get(members)
        if folds is None:
            folds = window.folds[members] = _folds(window, members, layout)
        cut = folds.index[left_out.pop()] if left_out else len(folds.index)
        for position, ((_, _, intersect), prefix, suffix) in enumerate(
            zip(layout.fields, folds.prefix, folds.suffix)
        ):
            if intersect:
                views[position] &= prefix[cut] & suffix[cut + 1]
            else:
                views[position] |= prefix[cut] | suffix[cut + 1]
        return heard, None

    def _holds(self, store, inbox, key) -> bool:
        """Whether the older ``inbox`` holds an AGREEMENT message of
        phase ``key``.  A span is cleared by one set lookup per segment
        it covers; only a segment holding the key is scanned, row by row
        (the span's skip excluded)."""
        if type(inbox) is not RowInbox:
            return any(_keyed(record, key) for record in inbox)
        shared = store.shared
        for item in inbox.items:
            if type(item) is not Span:
                if _keyed(item, key):
                    return True
                continue
            lo, hi, skip = item
            while lo < hi:
                segment = store.segment(lo)
                keys = self.keys.get(segment.start)
                if keys is None:
                    # An older inbox was drained in an earlier round, so
                    # no row joins its segments any more.
                    keys = self.keys[segment.start] = {
                        record.payload[0]
                        for record in shared[segment.start:segment.stop]
                        if record.kind is _AGREEMENT
                    }
                stop = min(hi, segment.stop)
                if key in keys and any(
                    _keyed(shared[row], key) for row in range(lo, stop) if row != skip
                ):
                    return True
                lo = stop
        return False


def _keyed(record, key) -> bool:
    return record.kind is _AGREEMENT and record.payload[0] == key


def _window(store, span: range, key, flag: int) -> Optional[_Window]:
    """The rows ``span`` as a window of phase ``key``, or ``None`` when
    rule 2 fails for them."""
    records = store.shared[span.start:span.stop]
    src_list = []
    payloads = []
    previous = -1
    for record in records:
        payload = record.payload
        src = record.src
        if (
            record.kind is not _AGREEMENT or payload[0] != key or payload[flag]
            or src <= previous
        ):
            return None
        src_list.append(src)
        payloads.append(payload)
        previous = src
    # The senders are distinct, so their bits sum to the heard mask.
    heard = sum(1 << src for src in src_list)
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
