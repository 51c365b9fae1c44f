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
window is checked once, reading the store's parallel per-row sender,
kind and payload lists, and for each admitted set it builds, once, per
view field every leave-one-out fold ``prefix[i] op suffix[i + 1]`` over
the admitted senders' views.  A recipient resolves to its cut ``i``
with a few int operations and one dict lookup, and folds one bitwise op
per field instead of ``t`` rows.  It applies only when all of these
hold; any other inbox goes to :func:`_fold_messages` over its
envelopes:

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

The round handler (:meth:`AgreementProcess._agree_round`) keeps the
views, the heard mask and the live-set estimate ``_U`` as python ints
and writes the folded views back into the process's own bitsets.  A
process that decides takes its work share through :func:`work_share`:
every decider of a round with the same pool and team slices one
partition, listed once in the delivery store's cache.

``tests/test_agreement_fold.py`` pins the shared window to
:func:`_fold_messages` fold by fold and the shared partition to
``IntBitset.select`` rank by rank; ``tests/test_differential_fuzz.py``
pins whole runs to a list-per-recipient reference store.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import and_, attrgetter, itemgetter, or_
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.sim.actions import Action, MessageKind
from repro.sim.bitset import IntBitset, positions
from repro.sim.columnar import RowInbox, Span
from repro.sim.process import Process

_AGREEMENT = MessageKind.AGREEMENT
_BITS = attrgetter("_bits")


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

    Subclasses set :attr:`layout`, keep the agreement state (``_U`` and
    ``_u_snapshot``, the live-set estimate and its last snapshot as
    python ints, ``_round_var``, ``_agree_done``) and implement
    ``_agree_broadcast(flag)`` and ``_finish_agreement(round_number,
    sends, store)``, ``store`` being the delivery store behind the
    round's inboxes when any took rows (see :func:`work_share`).
    """

    layout: AgreementLayout

    def _agree_round(self, round_number: int, inboxes: List, key) -> Action:
        """Fold ``inboxes`` (drained in order) for phase ``key``, then decide."""
        layout = self.layout
        fields = layout.fields
        own = 1 << self.pid
        snapshot = self._u_snapshot
        views = []
        for _, attribute, _ in fields:
            views.append(getattr(self, attribute)._bits)
        heard, adopted = _fold(inboxes, key, self.pid, layout, snapshot & ~own, views)
        if adopted is not None:
            for index, attribute, _ in fields:
                setattr(self, attribute, adopted[index].thaw())
            self._agree_done = True
        else:
            # The views are this process's own working sets, so the
            # folded bits go back into them: no bitset is allocated.
            for (_, attribute, _), bits in zip(fields, views):
                getattr(self, attribute)._bits = bits
        U = self._U
        if self._round_var >= 1:
            U = self._U = U & ~(snapshot & ~(heard | own))
            if U == snapshot:
                self._agree_done = True
        self._round_var += 1
        if self._agree_done:
            return self._finish_agreement(
                round_number, self._agree_broadcast(True), _store_of(inboxes)
            )
        self._u_snapshot = U
        return Action(sends=self._agree_broadcast(False))


# ---- the fold ---------------------------------------------------------------


def _store_of(inboxes: List):
    """The delivery store behind ``inboxes``, or ``None`` when no inbox
    took rows."""
    for inbox in inboxes:
        if type(inbox) is RowInbox:
            return inbox.store
    return None


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
    store = _store_of(inboxes)
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


class _Folds:
    """A window's rows folded over one admitted set.

    ``index`` maps each admitted sender to its position ``i`` among the
    ``size`` admitted rows.  Per view field, ``cuts`` holds the field's
    ``intersect`` flag and its ``size + 1`` leave-one-out folds: entry
    ``i`` folds every admitted row but the ``i``-th, entry ``size``
    every admitted row.
    """

    __slots__ = ("index", "size", "cuts")

    def __init__(self, index: Dict[int, int], cuts: List[Tuple[bool, List[int]]]):
        self.index = index
        self.size = len(index)
        self.cuts = cuts


class _Window:
    """The rows stamped ``s`` of one phase key, for which rule 2 holds.

    ``srcs[k]`` and ``payloads[k]`` belong to the window's ``k``-th row;
    ``heard`` is the mask of every sender; ``folds`` holds one
    :class:`_Folds` per admitted set plus recipient, built on first use.
    """

    __slots__ = ("heard", "srcs", "payloads", "folds")

    def __init__(self, heard: int, srcs: List[int], payloads: List[tuple]):
        self.heard = heard
        self.srcs = srcs
        self.payloads = payloads
        self.folds: Dict[int, _Folds] = {}


class SharedWindows:
    """Round-shared agreement folds for one store and one layout.

    ``windows`` maps a segment's first row to its windows by phase key;
    ``span`` is the segment last folded over and ``by_key`` its windows;
    ``older`` is the segment an older inbox was last checked in.
    A window's folds are keyed by the admitted set plus the recipient
    (``admitted_from | 1 << pid``), so every recipient with the same
    snapshot shares one.  A window of a newer segment drops every older
    one, so memory holds one round.  ``keys`` maps each closed segment's
    first row to the phase keys of its AGREEMENT rows (rule 1).
    ``shared`` and ``fallback`` count the folds that took this path and
    those that did not.
    """

    __slots__ = (
        "span", "by_key", "older", "newest", "windows", "keys", "shared", "fallback"
    )

    def __init__(self):
        self.span = range(0)
        self.older = range(0)
        self.by_key: Dict = {}
        self.newest = -1
        self.windows: Dict[int, Dict] = {}
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
            self.by_key = self.windows.setdefault(span.start, {})
        start = span.start
        stop = span.stop
        # Rule 3.
        absent = stop - start - (hi - lo) + (skip >= 0)
        if hi > stop or absent > 1:
            return None
        by_key = self.by_key
        window = by_key.get(key, False)
        if window is False:
            window = by_key[key] = _window(store, start, stop, key, layout.flag)
        if window is None:
            return None
        # Rule 4: the rows left out of the fold are the recipient's own
        # and the missing one, each only if it is in the window and from
        # an admitted sender (the recipient counts as one here).  ``out``
        # is the one left out, or -1.
        members = admitted_from | (1 << pid)
        heard = window.heard
        out = pid if heard >> pid & 1 else -1
        if absent:
            row = start if lo > start else stop - 1 if hi < stop else skip
            missing = window.srcs[row - start]
            heard &= ~(1 << missing)
            if members >> missing & 1:
                if 0 <= out != missing:
                    return None
                out = missing
        folds = window.folds.get(members)
        if folds is None:
            folds = window.folds[members] = _folds(window, members, layout)
        cut = folds.index[out] if out >= 0 else folds.size
        position = 0
        for intersect, values in folds.cuts:
            if intersect:
                views[position] &= values[cut]
            else:
                views[position] |= values[cut]
            position += 1
        return heard, None

    def _holds(self, store, inbox, key) -> bool:
        """Whether the older ``inbox`` holds an AGREEMENT message of
        phase ``key``.  A span is cleared by one set lookup per segment
        it covers; only a segment holding the key is scanned, row by row
        (the span's skip excluded)."""
        if type(inbox) is not RowInbox:
            return any(_keyed(record, key) for record in inbox)
        kinds, payloads = store.kinds, store.payloads
        for item in inbox.items:
            if type(item) is not Span:
                if _keyed(item, key):
                    return True
                continue
            lo, hi, skip = item
            while lo < hi:
                segment = self.older
                if not segment.start <= lo < segment.stop:
                    segment = self.older = store.segment(lo)
                keys = self.keys.get(segment.start)
                if keys is None:
                    # An older inbox was drained in an earlier round, so
                    # no row joins its segments any more.
                    keys = self.keys[segment.start] = {
                        payloads[row][0] for row in segment if kinds[row] is _AGREEMENT
                    }
                stop = min(hi, segment.stop)
                if key in keys and any(
                    kinds[row] is _AGREEMENT and payloads[row][0] == key
                    for row in range(lo, stop)
                    if row != skip
                ):
                    return True
                lo = stop
        return False


def _keyed(record, key) -> bool:
    return record.kind is _AGREEMENT and record.payload[0] == key


def _window(store, start: int, stop: int, key, flag: int) -> Optional[_Window]:
    """Rows ``start .. stop - 1`` as a window of phase ``key``, or
    ``None`` when rule 2 fails for them."""
    kinds = store.kinds[start:stop]
    if kinds.count(_AGREEMENT) != len(kinds):
        return None
    srcs = store.srcs[start:stop]
    payloads = store.payloads[start:stop]
    previous = -1
    for src, payload in zip(srcs, payloads):
        if src <= previous or payload[0] != key or payload[flag]:
            return None
        previous = src
    # The senders are distinct, so their bits sum to the heard mask.
    return _Window(sum(1 << src for src in srcs), srcs, payloads)


def _folds(window: _Window, members: int, layout: AgreementLayout) -> _Folds:
    srcs, payloads = window.srcs, window.payloads
    if window.heard & ~members:
        rows = [row for row, src in enumerate(srcs) if members >> src & 1]
        srcs = [srcs[row] for row in rows]
        payloads = [payloads[row] for row in rows]
    size = len(srcs)
    cuts = []
    for index, _, intersect in layout.fields:
        op, identity = (and_, -1) if intersect else (or_, 0)
        bits = list(map(_BITS, map(itemgetter(index), payloads)))
        if size > 1 and bits.count(bits[0]) == size:
            # One view in every row (a round after the views agreed):
            # leaving any one row out folds to that view.
            cuts.append((intersect, [bits[0]] * (size + 1)))
            continue
        # prefix[i] folds admitted rows [0, i), suffix[i] rows [i, size).
        prefix = list(accumulate(bits, op, initial=identity))
        suffix = list(accumulate(reversed(bits), op, initial=identity))[::-1]
        values = list(map(op, prefix, suffix[1:]))
        values.append(prefix[size])
        cuts.append((intersect, values))
    return _Folds(dict(zip(srcs, range(size))), cuts)


# ---- the work partition -------------------------------------------------------


class _Partitions:
    """The work partitions of one round, by ``(pool, team)`` masks: each
    the pool's members ascending and the team's members' ranks."""

    __slots__ = ("round", "by_pair")

    def __init__(self):
        self.round = -1
        self.by_pair: Dict[Tuple[int, int], Tuple[List[int], Dict[int, int]]] = {}


def work_share(
    store, pool: IntBitset, team: IntBitset, pid: int, per: int, round_number: int
) -> List[int]:
    """``pid``'s ``per`` units of ``pool``: its members ranked from
    ``rank * per`` on, ``rank`` being ``pid``'s rank in ``team`` (which
    holds ``pid``).

    Every process that decides the same ``(pool, team)`` takes a slice
    of one partition.  With a delivery store (``store`` is not ``None``)
    the pool's members and the team's ranks are listed once per distinct
    pair in the store's cache, which holds one round's partitions;
    without one the slice comes straight off the bitsets.
    """
    if store is None:
        return pool.select(team.count_below(pid) * per, per)
    partitions = store.cache("work-partition", _Partitions)
    if partitions.round != round_number:
        partitions.round = round_number
        partitions.by_pair.clear()
    pair = (pool.to_int(), team.to_int())
    partition = partitions.by_pair.get(pair)
    if partition is None:
        ranks = {member: rank for rank, member in enumerate(positions(pair[1]))}
        partition = partitions.by_pair[pair] = (positions(pair[0]), ranks)
    members, ranks = partition
    first = ranks[pid] * per
    return members[first:first + per]
