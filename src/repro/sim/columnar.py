"""The sync engine's delivery store: per-recipient lanes plus a shared row log.

The synchronous workloads of this paper are *bulk-synchronous*: in an
agreement round every live Protocol D process broadcasts one payload to
Theta(t) recipients.  One envelope per copy would allocate and later
re-inspect Theta(t^2) objects per round, so this store keeps two kinds
of mail:

* **Rows.**  A broadcast reaching at least ``min(WIDE_FANOUT, t // 2)``
  live recipients is stored once, as a row ``(Envelope, mask)`` of one
  run-wide row log, the envelope's ``dst`` ``-1`` because the row
  addresses a mask; each recipient keeps a cursor into the log.  The
  row's sender, kind and payload are also kept in parallel per-row
  lists, which the agreement fold reads at list-index speed.
  Rows are appended at non-decreasing stamps, so the rows of one stamp
  form a contiguous *segment*.  Each segment keeps ``common``, the AND
  over its rows of ``mask | 1 << src``, and the rows whose sender is not
  in its own mask, keyed by sender: a recipient in ``common`` takes the
  whole segment minus its own row as one :class:`Span`, without reading
  a mask.  Any other recipient scans the segment row by row.
* **Lanes.**  Point-to-point mail and narrower broadcasts go to the
  recipient's lane, one ``Envelope`` per copy.  Posts happen at the
  current processed round and processed rounds strictly increase, so a
  lane is sorted by stamp and delivery splits off a prefix.

The threshold is a constant of the input, not an option: a lower one
leaves idle recipients' cursors lagging behind narrow group broadcasts,
and ``t // 2`` alone splits crash-censored broadcasts between lanes and
rows (see "One delivery store" in docs/perf.md).

Order between the two kinds is post order, as if every copy had been
appended to one list per recipient.  A lane entry posted after a row of
its own stamp records the row count at that moment (``marks``, keyed by
``id`` of the entry until it is taken); any other entry precedes every
row of its stamp.  A drain holding both kinds merges them by that
position, lane entry first on a tie, lanes in their own order.

A drain that takes rows returns a :class:`RowInbox`: a sequence that
materialises the recipient's envelopes lazily, in that order, while the
agreement fold of :mod:`repro.core.agreement_fold` reads its spans and
rows directly and allocates no envelope at all.  A drain of lane mail
alone returns a plain list, exactly as a list of envelopes per recipient
would.  ``tests/reference_store.py`` keeps that list-per-recipient store
as the oracle every equivalence test compares this one to.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, NamedTuple, Optional

from repro.sim.actions import Envelope, MessageKind

#: ``_new(Envelope, fields)`` builds an envelope from its five-field
#: tuple without the NamedTuple's Python-level ``__new__``: the store
#: builds one per row and one per delivered copy.
_new = tuple.__new__

#: A broadcast reaching at least ``min(WIDE_FANOUT, t // 2)`` live
#: recipients is stored as one row; narrower mail goes to lanes.
WIDE_FANOUT = 64


class Span(NamedTuple):
    """Rows ``lo .. hi - 1`` of the row log, except row ``skip``.

    ``skip`` is ``-1`` (none) or lies strictly inside the span, so a
    span of ``k`` rows with a skip holds ``k - 1`` of them.
    """

    lo: int
    hi: int
    skip: int


def _items(stream) -> list:
    """Ascending ``(lo, hi)`` runs of rows, with lane entries between
    them, as inbox items: lane entries as they are, runs joined into
    :class:`Span` items, two runs one row apart bridged by a skip."""
    items: list = []
    for item in stream:
        if type(item) is tuple:
            lo, hi = item
            last = items[-1] if items else None
            if type(last) is Span:
                if last.hi == lo:
                    items[-1] = Span(last.lo, hi, last.skip)
                    continue
                if last.hi + 1 == lo and last.skip < 0:
                    items[-1] = Span(last.lo, hi, last.hi)
                    continue
            items.append(Span(lo, hi, -1))
        else:
            items.append(item)
    return items


class ColumnarMailboxes:
    """Per-recipient lanes plus one shared row log, indexed by pid.

    ``cursor[pid]`` is the first row ``pid`` has neither taken nor
    skipped; it only moves forward, and under a receive budget stops at
    the first row a drain did not take.  ``srcs[row]``, ``kinds[row]``
    and ``payloads[row]`` repeat the fields of ``shared[row]``.  Segment
    ``k`` starts at row ``seg_start[k]``, holds the rows stamped
    ``seg_stamp[k]`` and carries ``seg_common[k]`` and ``seg_own[k]``
    (see the module docstring).  ``caches`` hosts protocol-owned per-run state (see
    :meth:`cache`).
    """

    __slots__ = (
        "wide",
        "lanes",
        "shared",
        "srcs",
        "kinds",
        "payloads",
        "masks",
        "cursor",
        "marks",
        "seg_start",
        "seg_stamp",
        "seg_common",
        "seg_own",
        "_caches",
    )

    def __init__(self, t: int):
        self.wide = min(WIDE_FANOUT, t // 2)
        self.lanes: List[list] = [[] for _ in range(t)]
        self.shared: List[Envelope] = []
        self.srcs: List[int] = []
        self.kinds: List[MessageKind] = []
        self.payloads: List[Any] = []
        self.masks: List[int] = []
        self.cursor = [0] * t
        self.marks: Dict[int, int] = {}
        self.seg_start: List[int] = []
        self.seg_stamp: List[int] = []
        self.seg_common: List[int] = []
        self.seg_own: List[Dict[int, int]] = []
        self._caches: Dict[str, Any] = {}

    # ---- posts -------------------------------------------------------

    def post_p2p(
        self, src: int, dst: int, payload: Any, kind: MessageKind, sent_round: int
    ) -> None:
        """Append one envelope to ``dst``'s lane; the engine has already
        checked ``dst`` is live."""
        envelope = Envelope(src, dst, payload, kind, sent_round)
        self.lanes[dst].append(envelope)
        if self.seg_stamp and self.seg_stamp[-1] == sent_round:
            self.marks[id(envelope)] = len(self.masks)

    def post_broadcast(
        self, src: int, payload: Any, kind: MessageKind, sent_round: int, mask: int
    ) -> None:
        """One row, or one envelope per set bit of ``mask`` (already
        live-restricted, so non-zero and < 2**t)."""
        seg_stamp = self.seg_stamp
        if mask.bit_count() >= self.wide:
            row = len(self.masks)
            if not seg_stamp or seg_stamp[-1] != sent_round:
                self.seg_start.append(row)
                seg_stamp.append(sent_round)
                self.seg_common.append(-1)
                self.seg_own.append({})
            self.shared.append(_new(Envelope, (src, -1, payload, kind, sent_round)))
            self.srcs.append(src)
            self.kinds.append(kind)
            self.payloads.append(payload)
            self.masks.append(mask)
            bit = 1 << src
            common = self.seg_common[-1] & (mask | bit)
            if not mask & bit:
                own = self.seg_own[-1]
                if src in own:
                    # A second row without its sender: that recipient
                    # scans the segment instead.
                    common &= ~bit
                else:
                    own[src] = row
            self.seg_common[-1] = common
            return
        lanes = self.lanes
        marks = self.marks if seg_stamp and seg_stamp[-1] == sent_round else None
        row = len(self.masks)
        # Inlined low-bit extraction and ``Envelope`` construction: the
        # recipient walk runs once per copy, so the bitset generator's
        # frame switches and the NamedTuple's ``__new__`` would show.
        while mask:
            low = mask & -mask
            mask ^= low
            dst = low.bit_length() - 1
            envelope = _new(Envelope, (src, dst, payload, kind, sent_round))
            lanes[dst].append(envelope)
            if marks is not None:
                marks[id(envelope)] = row

    # ---- per-recipient queries ---------------------------------------

    def segment(self, row: int) -> range:
        """The rows stamped like ``row``, whoever they address."""
        seg_start = self.seg_start
        k = bisect_right(seg_start, row) - 1
        stop = seg_start[k + 1] if k + 1 < len(seg_start) else len(self.masks)
        return range(seg_start[k], stop)

    def head_stamp(self, pid: int) -> Optional[int]:
        """Stamp of ``pid``'s earliest undelivered mail (or ``None``):
        the earlier of its lane head and its first addressed row.  The
        cursor advances to that row."""
        lane = self.lanes[pid]
        head = lane[0].sent_round if lane else None
        run = next(self._runs(pid, self.cursor[pid]), None)
        if run is None:
            self.cursor[pid] = len(self.masks)
            return head
        self.cursor[pid] = run[0]
        stamp = self.shared[run[0]].sent_round
        return stamp if head is None or stamp < head else head

    def drain(self, pid: int, round_number: int, receive: Optional[int]):
        """All mail for ``pid`` stamped before ``round_number``, at most
        ``receive`` items; the rest stay queued, oldest first.  Returns
        a list of lane envelopes or a :class:`RowInbox`.

        A recipient whose only pending mail is the newest segment, and
        who is in its ``common``, takes its one span straight away;
        everything else goes through ``_runs`` and ``_items``."""
        lane = self.lanes[pid]
        start = self.cursor[pid]
        rows = None
        if start < len(self.masks):
            if (
                start >= self.seg_start[-1]
                and self.seg_common[-1] >> pid & 1
                and self.seg_stamp[-1] < round_number
                and (not lane or lane[0].sent_round >= round_number)
            ):
                # The one agreement-round shape: nothing pending but the
                # newest segment, which addresses ``pid`` in every row
                # but, perhaps, its own.  One span, as ``_runs`` and
                # ``_items`` would have made it.
                end = len(self.masks)
                lo, hi, skip = start, end, -1
                own = self.seg_own[-1].get(pid, -1)
                if own == lo:
                    lo += 1
                elif own == hi - 1:
                    hi -= 1
                elif own > lo:
                    skip = own
                count = hi - lo - (skip >= 0)
                if count > 0 and (receive is None or count <= receive):
                    self.cursor[pid] = end
                    return RowInbox(self, pid, [_new(Span, (lo, hi, skip))])
            rows = _items(self._runs(pid, start, round_number))
            self.cursor[pid] = max(start, self._rows_before(round_number))
        if not rows:
            # Lane mail alone: a prefix split.
            if not lane or lane[0].sent_round >= round_number:
                return []
            split = len(lane)
            for index, envelope in enumerate(lane):
                if envelope.sent_round >= round_number:
                    split = index
                    break
            if receive is not None and split > receive:
                split = receive
            ready = lane[:split]
            del lane[:split]
            if self.marks:
                self._unmark(ready)
            return ready
        ready = 0
        for envelope in lane:
            if envelope.sent_round >= round_number:
                break
            ready += 1
        inbox = RowInbox(self, pid, rows)
        if not ready and (receive is None or len(inbox) <= receive):
            return inbox
        row_ids = [row for lo, hi, skip in rows for row in range(lo, hi) if row != skip]
        merged = self._merge(row_ids, lane[:ready])
        if receive is not None and len(merged) > receive:
            # The cursor goes back to the first row not taken.
            rest = merged[receive:]
            merged = merged[:receive]
            self.cursor[pid] = next((row for row in rest if type(row) is int), self.cursor[pid])
        taken = sum(1 for item in merged if type(item) is not int)
        if self.marks:
            self._unmark(lane[:taken])
        del lane[:taken]
        return RowInbox(
            self, pid, _items((row, row + 1) if type(row) is int else row for row in merged)
        )

    def clear(self, pid: int) -> None:
        """Retirement: drop everything currently queued for ``pid``."""
        self.cursor[pid] = len(self.masks)
        lane = self.lanes[pid]
        if self.marks:
            self._unmark(lane)
        lane.clear()

    def cache(self, name: str, factory):
        """Fetch-or-create protocol-owned per-run state.

        The store is shared by every process of a run, so state kept
        here (e.g. the agreement fold's round-shared windows) is built
        once per run instead of once per recipient.
        """
        cache = self._caches.get(name)
        if cache is None:
            cache = self._caches[name] = factory()
        return cache

    # ---- drain helpers -----------------------------------------------

    def _runs(self, pid: int, row: int, round_number: Optional[int] = None):
        """Yield ``pid``'s rows from ``row`` on, stamped before
        ``round_number`` (if given), as ascending ``(lo, hi)`` runs."""
        if row >= len(self.masks):
            return
        seg_start, seg_stamp = self.seg_start, self.seg_stamp
        segments = len(seg_start)
        k = bisect_right(seg_start, row) - 1
        while k < segments and (round_number is None or seg_stamp[k] < round_number):
            end = seg_start[k + 1] if k + 1 < segments else len(self.masks)
            if self.seg_common[k] >> pid & 1:
                own = self.seg_own[k].get(pid, -1)
                if row <= own:
                    if row < own:
                        yield row, own
                    row = own + 1
                if row < end:
                    yield row, end
            else:
                masks = self.masks
                lo = -1
                for index in range(row, end):
                    if masks[index] >> pid & 1:
                        if lo < 0:
                            lo = index
                    elif lo >= 0:
                        yield lo, index
                        lo = -1
                if lo >= 0:
                    yield lo, end
            row = end
            k += 1

    def _rows_before(self, stamp: int) -> int:
        """How many rows are stamped before ``stamp``: rows are appended
        at non-decreasing stamps, so this is where ``stamp``'s begin."""
        k = bisect_left(self.seg_stamp, stamp)
        return self.seg_start[k] if k < len(self.seg_start) else len(self.masks)

    def _merge(self, rows: list, entries: list) -> list:
        """Row ids and lane entries in post order: an entry goes before
        the first row posted after it."""
        marks = self.marks
        merged = []
        index = 0
        for entry in entries:
            position = marks.get(id(entry))
            if position is None:
                position = self._rows_before(entry.sent_round)
            while index < len(rows) and rows[index] < position:
                merged.append(rows[index])
                index += 1
            merged.append(entry)
        merged.extend(rows[index:])
        return merged

    def _unmark(self, entries) -> None:
        marks = self.marks
        for entry in entries:
            marks.pop(id(entry), None)


class RowInbox:
    """One drain that took rows, as a sequence of envelopes.

    ``items`` holds, in delivery order, :class:`Span` runs of rows and
    lane envelopes.  ``len``, truthiness, iteration, indexing and
    slicing behave as the list of envelopes a list-per-recipient store
    would have returned: rows materialise (once, memoized) as the
    recipient's own ``Envelope`` copies of the row's envelope.
    :meth:`records` walks the same mail without materialising it.
    """

    __slots__ = ("store", "dst", "items", "_objects")

    def __init__(self, store: ColumnarMailboxes, dst: int, items: list):
        self.store = store
        self.dst = dst
        self.items = items
        self._objects: Optional[list] = None

    def records(self):
        """Each message's envelope as stored: a row's (``dst`` ``-1``)
        or a lane entry's; read ``src``, ``payload``, ``kind`` and
        ``sent_round``, not ``dst``."""
        shared = self.store.shared
        for item in self.items:
            if type(item) is Span:
                lo, hi, skip = item
                if skip < 0:
                    yield from shared[lo:hi]
                else:
                    yield from shared[lo:skip]
                    yield from shared[skip + 1:hi]
            else:
                yield item

    def _materialize(self) -> list:
        objects = self._objects
        if objects is None:
            dst = self.dst
            objects = self._objects = [
                record if record.dst >= 0 else _new(
                    Envelope, (record.src, dst, record.payload, record.kind, record.sent_round)
                )
                for record in self.records()
            ]
        return objects

    def __len__(self) -> int:
        return sum(
            item.hi - item.lo - (item.skip >= 0) if type(item) is Span else 1
            for item in self.items
        )

    def __bool__(self) -> bool:
        return True  # a drain that takes nothing returns []

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowInbox(dst={self.dst}, items={self.items})"
