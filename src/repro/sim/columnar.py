"""Columnar (numpy) delivery store for the sync engine.

The synchronous workloads of this paper are *bulk-synchronous*: in an
agreement round every live Protocol D process broadcasts one payload to
Theta(t) recipients, so the list store's per-copy representation - one
``EnvelopeView`` object appended per (broadcast, live recipient) pair -
allocates and later re-inspects Theta(t^2) Python objects per round.
This module stores the same delivery state as *columns*: one row per
committed batch holding parallel numpy arrays (sent-round / source-pid /
payload-id / kind-code) plus a packed recipient bitmask per row, and a
payload intern table mapping payload ids back to the shared payload
objects.  Commit is one row append regardless of fan-out; per-recipient
delivery state is a single integer cursor into the row log.

Equivalence contract: with this store, every run produces bit-identical
metrics, traces and RNG draw sequences to the list store
(:class:`repro.sim.mailboxes.ListMailboxes`).  Both stores share one
surface and the engine keeps metrics/trace/censoring in one place, so
only *storage* differs:

* ``post_broadcast`` appends one row whose recipient mask is already
  restricted to live pids (the engine's ``& live_mask``), mirroring the
  list store's "only live recipients get a view" rule;
* ``head_stamp``/``drain`` reproduce the stamp-sorted mailbox semantics:
  rows are appended at strictly non-decreasing processed rounds, so each
  recipient's undelivered mail is exactly the rows at index >= its
  cursor whose mask includes it, in stamp order; delivery is a
  vectorized prefix split (``searchsorted``) with the same
  receive-budget cap;
* ``clear`` (retirement) advances the cursor past every existing row;
  rows appended later never address a retired pid (the live-mask
  restriction), so crash-recover rejoins see an empty mailbox followed
  by only post-recovery mail - byte-for-byte the list store's behaviour.

A drain returns a :class:`ColumnarInbox`: a sequence that materialises
``Envelope``/``EnvelopeView`` objects *lazily* (memoized), so protocols
that iterate their inbox behave identically while protocols that
understand columns (the agreement fold of :mod:`repro.core.agreement_fold`)
read the arrays directly and never allocate a view at all.

numpy is an optional dependency (the ``repro[fast]`` extra).  This
module always imports; :func:`resolve_fastpath` picks each engine's
store from its ``fastpath`` knob.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.actions import Envelope, EnvelopeView, MessageKind, SharedEnvelope

try:  # pragma: no cover - exercised by the no-numpy CI leg
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None
    HAVE_NUMPY = False

#: The engine-level switch values (also the Scenario field's domain).
FASTPATH_CHOICES = ("auto", "on", "off")

#: Stable small-int codes for the kind column (enum definition order).
KIND_CODES = {kind: code for code, kind in enumerate(MessageKind)}
KIND_BY_CODE = tuple(MessageKind)

#: Smallest ``t`` for which ``"auto"`` picks the columnar store.  Below
#: it the per-row numpy calls cost more than the list store's per-copy
#: appends (see "Store selection" in docs/perf.md).
COLUMNAR_MIN_T = 64


def resolve_fastpath(mode: str, processes: Sequence) -> bool:
    """Decide whether an engine over ``processes`` runs columnar.

    ``"off"`` never does and ``"on"`` always does - raising a
    :class:`ConfigurationError` that names the ``repro[fast]`` extra when
    numpy is missing, so a run that was promised the columnar store fails
    loudly instead of silently slowing down.  ``"auto"`` picks it only
    where it wins: numpy is importable, there are at least
    :data:`COLUMNAR_MIN_T` processes, and every process class declares a
    columnar fold (``Process.columnar_fold``) that reads the store's
    columns instead of materialising envelopes.
    """
    if mode == "off":
        return False
    if mode == "auto":
        return (
            HAVE_NUMPY
            and len(processes) >= COLUMNAR_MIN_T
            and all(process.columnar_fold for process in processes)
        )
    if mode == "on":
        if not HAVE_NUMPY:
            raise ConfigurationError(
                "fastpath 'on' requires numpy (install the 'repro[fast]' "
                "extra); use fastpath='auto' to fall back to pure python"
            )
        return True
    raise ConfigurationError(
        f"unknown fastpath {mode!r}; choices: " + ", ".join(FASTPATH_CHOICES)
    )


# ---- the columnar store -------------------------------------------------


class ColumnarMailboxes:
    """Row-per-batch delivery log with per-recipient cursors.

    Columns (parallel arrays, capacity-doubling):

    * ``sent`` - the stamp round (non-decreasing in row order);
    * ``src`` - sender pid;
    * ``payload_id`` - index into the payload intern table;
    * ``kind`` - :data:`KIND_CODES` code;
    * ``p2p_dst`` - destination pid for point-to-point rows, ``-1`` for
      broadcast rows (decides ``Envelope`` vs ``EnvelopeView``
      materialisation);
    * ``recips`` - uint64 recipient bitmask matrix, ``(t + 63) // 64``
      words wide.

    ``cursor[pid]`` is the first row this recipient has not yet
    consumed; it only moves forward.  ``caches`` hosts protocol-owned
    per-payload decoded-field caches (see :meth:`cache`), filled once
    per payload id no matter how many recipients read it.
    """

    __slots__ = (
        "t",
        "words",
        "_cap",
        "_count",
        "_sent",
        "_src",
        "_payload_id",
        "_kind",
        "_p2p_dst",
        "_recips",
        "_table",
        "_table_kind",
        "_shared",
        "_cursor",
        "_caches",
    )

    def __init__(self, t: int, *, capacity: int = 1024):
        self.t = t
        self.words = max(1, (t + 63) >> 6)
        self._cap = max(16, capacity)
        self._count = 0
        # Stamps are *object* dtype: quiescence fast-forward means round
        # numbers reach Theta(2^(n+t)) for Protocol C's timeouts, far
        # past int64.  The column is only ever read element-wise or via
        # a log-time ``searchsorted``, so nothing vectorized is lost.
        self._sent = np.empty(self._cap, dtype=object)
        self._src = np.empty(self._cap, dtype=np.int32)
        self._payload_id = np.empty(self._cap, dtype=np.int32)
        self._kind = np.empty(self._cap, dtype=np.int8)
        self._p2p_dst = np.empty(self._cap, dtype=np.int32)
        self._recips = np.zeros((self._cap, self.words), dtype=np.uint64)
        self._table: List[Any] = []       # payload intern table
        self._table_kind: List[int] = []  # kind code per table entry
        self._shared: List[Optional[SharedEnvelope]] = []  # per row, lazy
        self._cursor = [0] * t
        self._caches = {}

    # ---- appends -----------------------------------------------------

    def _grow(self) -> None:
        cap = self._cap * 2
        count = self._count
        for name in ("_sent", "_src", "_payload_id", "_kind", "_p2p_dst"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:count] = old[:count]
            setattr(self, name, new)
        recips = np.zeros((cap, self.words), dtype=np.uint64)
        recips[:count] = self._recips[:count]
        self._recips = recips
        self._cap = cap

    def _intern(self, payload: Any, kind_code: int) -> int:
        # One table entry per committed batch; consecutive posts of the
        # identical payload object (a congestion-split broadcast's
        # segments) share one id so decoded-field caches fill once.
        table = self._table
        if table and table[-1] is payload:
            return len(table) - 1
        table.append(payload)
        self._table_kind.append(kind_code)
        return len(table) - 1

    def _append(
        self, sent_round: int, src: int, kind_code: int, p2p_dst: int,
        mask: int, payload: Any,
    ) -> None:
        row = self._count
        if row == self._cap:
            self._grow()
        self._sent[row] = sent_round
        self._src[row] = src
        self._kind[row] = kind_code
        self._p2p_dst[row] = p2p_dst
        self._payload_id[row] = self._intern(payload, kind_code)
        self._recips[row] = np.frombuffer(
            mask.to_bytes(self.words * 8, "little"), dtype="<u8"
        )
        self._shared.append(None)
        self._count = row + 1

    def post_broadcast(
        self, src: int, payload: Any, kind: MessageKind, sent_round: int, mask: int
    ) -> None:
        """Commit one broadcast row; ``mask`` is already live-restricted
        (and therefore non-zero and < 2**t)."""
        self._append(sent_round, src, KIND_CODES[kind], -1, mask, payload)

    def post_p2p(
        self, src: int, dst: int, payload: Any, kind: MessageKind, sent_round: int
    ) -> None:
        """Commit one point-to-point row (legacy/mixed batches, unit
        effects); the engine has already checked ``dst`` is live."""
        self._append(sent_round, src, KIND_CODES[kind], dst, 1 << dst, payload)

    # ---- per-recipient queries ---------------------------------------

    def head_stamp(self, pid: int) -> Optional[int]:
        """Stamp of ``pid``'s earliest undelivered mail (or ``None``).

        Equivalent to the list store's ``box[0].sent_round``: rows
        are stamp-sorted, so the first row at or after the cursor whose
        mask includes ``pid`` is the mailbox head.  The cursor advances
        past leading non-addressed rows so repeated queries stay cheap.
        """
        start = self._cursor[pid]
        count = self._count
        if start >= count:
            return None
        lane = self._recips[start:count, pid >> 6]
        hits = np.nonzero((lane >> np.uint64(pid & 63)) & np.uint64(1))[0]
        if hits.size == 0:
            self._cursor[pid] = count
            return None
        first = start + int(hits[0])
        self._cursor[pid] = first
        return int(self._sent[first])

    def drain(self, pid: int, round_number: int, receive: Optional[int]):
        """All mail for ``pid`` stamped before ``round_number``, capped
        by the ``receive`` congestion budget; consumed rows are skipped
        by future queries.  Returns ``[]`` or a :class:`ColumnarInbox`.
        """
        start = self._cursor[pid]
        count = self._count
        if start >= count:
            return []
        lane = self._recips[start:count, pid >> 6]
        hits = np.nonzero((lane >> np.uint64(pid & 63)) & np.uint64(1))[0]
        if hits.size == 0:
            self._cursor[pid] = count
            return []
        rows = hits.astype(np.int64)
        rows += start
        split = int(np.searchsorted(self._sent[rows], round_number, side="left"))
        if split == 0:
            # Head not yet visible; still skip the non-addressed prefix.
            self._cursor[pid] = int(rows[0])
            return []
        if receive is not None and split > receive:
            split = receive
        taken = rows[:split]
        self._cursor[pid] = int(taken[-1]) + 1
        return ColumnarInbox(self, pid, taken)

    def clear(self, pid: int) -> None:
        """Retirement: drop everything currently queued for ``pid``."""
        self._cursor[pid] = self._count

    def stamp_window(self, row: int) -> range:
        """Every row stamped like ``row``, whoever it addresses.

        Rows are appended at non-decreasing stamps, so the rows of one
        stamp are one contiguous range of row ids.
        """
        sent = self._sent[: self._count]
        stamp = sent[row]
        return range(
            int(np.searchsorted(sent, stamp, side="left")),
            int(np.searchsorted(sent, stamp, side="right")),
        )

    # ---- payloads and materialisation --------------------------------

    def payload(self, payload_id: int) -> Any:
        return self._table[payload_id]

    def payload_count(self) -> int:
        return len(self._table)

    def payload_kind_code(self, payload_id: int) -> int:
        return self._table_kind[payload_id]

    def envelope(self, row: int, dst: int):
        """The exact object the list store would have mailed for ``row``:
        an ``Envelope`` tuple for point-to-point rows, a shared-envelope
        ``EnvelopeView`` for broadcast rows (one ``SharedEnvelope`` per
        row, shared by every recipient that materialises it)."""
        payload = self._table[self._payload_id[row]]
        kind = KIND_BY_CODE[self._kind[row]]
        if self._p2p_dst[row] >= 0:
            return Envelope(
                int(self._src[row]), dst, payload, kind, int(self._sent[row])
            )
        shared = self._shared[row]
        if shared is None:
            shared = self._shared[row] = SharedEnvelope(
                int(self._src[row]), payload, kind, int(self._sent[row])
            )
        return EnvelopeView(shared, dst)

    def cache(self, name: str, factory):
        """Fetch-or-create a protocol-owned decoded-payload cache.

        The store is shared by every process of a run, so fields decoded
        into a cache (e.g. the agreement fold's per-payload key and flag)
        are computed once per payload id instead of once per delivered
        copy.
        """
        cache = self._caches.get(name)
        if cache is None:
            cache = self._caches[name] = factory()
        return cache


class ColumnarInbox:
    """One drain's worth of mail, as columns plus a lazy object view.

    Sequence-compatible with the list store's ``List[Envelope]``: ``len``,
    truthiness, iteration, indexing and slicing all materialise (and
    memoize) the identical envelope objects in identical order.  Column
    accessors hand protocols the underlying arrays so a vectorized
    consumer never materialises anything.
    """

    __slots__ = ("store", "dst", "rows", "_objects")

    def __init__(self, store: ColumnarMailboxes, dst: int, rows):
        self.store = store
        self.dst = dst
        self.rows = rows
        self._objects: Optional[list] = None

    # ---- sequence protocol (list-store compatibility) ----------------

    def _materialize(self) -> list:
        objects = self._objects
        if objects is None:
            store = self.store
            dst = self.dst
            objects = self._objects = [
                store.envelope(row, dst) for row in self.rows.tolist()
            ]
        return objects

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return len(self.rows) > 0

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarInbox(dst={self.dst}, rows={self.rows.tolist()})"

    # ---- column accessors (the columnar agreement fold) --------------

    def srcs(self):
        return self.store._src[self.rows]

    def payload_ids(self):
        return self.store._payload_id[self.rows]
