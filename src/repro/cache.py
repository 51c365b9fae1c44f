"""Content-addressed result cache: one run per distinct scenario.

Every run in this package is a deterministic function of its scenario's
canonical dict, so a cache keyed by :meth:`repro.api.Scenario.cache_key`
(SHA-256 of that dict) gives **exact** hits: a cached result is
bit-identical to re-running the scenario.  That is what makes a
long-lived run service cheap - a million identical-config requests cost
one execution (see ``docs/serve.md``).

:class:`ResultCache` is an in-memory LRU with optional append-only JSONL
persistence:

* ``get(key)`` / ``put(key, result)`` rehydrate/serialize through the
  lossless :meth:`~repro.sim.metrics.RunResult.to_dict` (``full=True``)
  form, so hits return fresh :class:`~repro.sim.metrics.RunResult`
  objects equal to what a direct run produced.  The ``config`` echo is
  deliberately stripped before storing: it names the *submitting*
  scenario, not the content address, and callers re-attach their own
  (see :func:`repro.api.run_scenarios`).
* ``hits`` / ``misses`` / ``stores`` / ``evictions`` counters are the
  observable proof of single-execution semantics - the server surfaces
  them in every response and the CI serve-smoke job asserts a repeat
  submission is 100% hits.
* With ``path=...`` every store appends one ``{"key", "result",
  "crc"}`` JSON line (``crc`` is the CRC32 of the canonical
  ``{"key", "result"}`` encoding); a new cache constructed on the same
  path replays the journal (last write wins), so a restarted server
  keeps its memo.  The journal is append-only: in-memory LRU evictions
  do not rewrite it, which makes persistence crash-safe at the cost of
  the file being a superset of memory.  :meth:`ResultCache.compact`
  (CLI: ``repro cache compact``) rewrites the journal to live entries
  only - atomically, via a temp file - when campaign-scale churn makes
  that superset bloat.

Degradation contract (see ``docs/chaos.md``): a journal line that does
not parse, has the wrong shape, or fails its checksum is **skipped and
counted** on replay (``journal_corrupt``) rather than poisoning the
whole cache; pre-CRC lines without a ``crc`` field still load
(``journal_unchecksummed``); a failed append (``OSError``) is counted
(``journal_errors``) and the in-memory entry stays live, so a sick disk
degrades persistence, never correctness.  :func:`verify_journal` (CLI:
``repro cache verify``) audits a journal offline and reports
live/stale/corrupt/unchecksummed line counts.

Thread-safe; the run server shares one instance across its request and
worker threads.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.sim.metrics import RunResult


def _canonical(key: str, payload: Dict[str, Any]) -> str:
    """One journal record's canonical ``{"key", "result"}`` encoding."""
    return json.dumps({"key": key, "result": payload}, sort_keys=True)


def _crc(body: str) -> int:
    return zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF


def journal_crc(key: str, payload: Dict[str, Any]) -> int:
    """CRC32 checksum of one journal record's canonical encoding."""
    return _crc(_canonical(key, payload))


def _journal_line(key: str, payload: Dict[str, Any]) -> str:
    """One journal line, encoding the record once.  ``"crc"`` sorts
    before ``"key"``, so splicing it in front of the canonical body gives
    the same bytes as ``json.dumps`` of the whole record with
    ``sort_keys=True``."""
    body = _canonical(key, payload)
    return '{"crc": %d, ' % _crc(body) + body[1:] + "\n"


def _classify_line(line: str):
    """``(status, key, payload)`` for one journal line; status is
    ``"ok"``, ``"unchecksummed"`` or ``"corrupt"``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return "corrupt", None, None
    if (
        not isinstance(record, dict)
        or not isinstance(record.get("key"), str)
        or not isinstance(record.get("result"), dict)
        or set(record) - {"key", "result", "crc"}
    ):
        return "corrupt", None, None
    key, payload = record["key"], record["result"]
    if "crc" not in record:
        return "unchecksummed", key, payload
    if record["crc"] != journal_crc(key, payload):
        return "corrupt", None, None
    return "ok", key, payload


class ResultCache:
    """LRU memo of completed runs, keyed by scenario content address."""

    def __init__(self, max_entries: Optional[int] = None, path=None, *, chaos=None):
        if max_entries is not None and (
            isinstance(max_entries, bool)
            or not isinstance(max_entries, int)
            or max_entries < 1
        ):
            raise ConfigurationError(
                f"cache max_entries must be a positive integer or None, "
                f"got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.journal_corrupt = 0        # lines skipped on replay
        self.journal_unchecksummed = 0  # pre-CRC lines accepted on replay
        self.journal_errors = 0         # appends that failed (OSError)
        self._chaos = chaos  # a repro.chaos.ChaosInjector, or None
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self._replay_journal()

    # ---- persistence -------------------------------------------------

    def _replay_journal(self) -> None:
        # Corrupt lines (torn writes, bit rot, checksum mismatches) are
        # skipped and counted, never fatal: one bad line must not turn a
        # million-entry memo into a ConfigurationError at startup.
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            status, key, payload = _classify_line(line)
            if status == "corrupt":
                self.journal_corrupt += 1
                continue
            if status == "unchecksummed":
                self.journal_unchecksummed += 1
            self._insert(key, payload)

    def _append_journal(self, key: str, payload: Dict[str, Any]) -> None:
        if self.path is None:
            return
        line = _journal_line(key, payload)
        mode = self._chaos.fire("journal_write", key) if self._chaos else None
        try:
            with self.path.open("a") as handle:
                if mode == "torn":
                    handle.write(line[: max(1, len(line) // 2)])
                elif mode == "partial":
                    handle.write(line[: max(1, len(line) // 3)] + "\n")
                elif mode == "fail":
                    raise OSError("chaos: injected journal write failure")
                else:
                    handle.write(line)
        except OSError:
            # Persistence degrades, correctness does not: the in-memory
            # entry stays live and the failure is observable in stats().
            self.journal_errors += 1

    # ---- core map ----------------------------------------------------

    def _insert(self, key: str, payload: Dict[str, Any]) -> None:
        self._entries[key] = payload
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key`` as a fresh :class:`RunResult`
        (``config`` is ``None`` - attach the requester's echo), or
        ``None``.  Counts one hit or miss."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        return RunResult.from_dict(payload)

    def get_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` but returns the stored wire dict (treat it
        as read-only); this is what the server serializes back out
        without a rehydrate/re-serialize round-trip."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored wire dict without touching counters or LRU order
        (the ``GET /results/<key>`` endpoint, stats tooling)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, result: RunResult) -> Dict[str, Any]:
        """Store ``result`` under ``key`` and return the stored payload
        (lossless form, ``config`` stripped)."""
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                f"cache keys are Scenario.cache_key() strings, got {key!r}"
            )
        payload = result.to_dict(full=True)
        payload.pop("config", None)
        with self._lock:
            self._insert(key, payload)
            self.stores += 1
            self._append_journal(key, payload)
        return payload

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop the in-memory entries (the journal, if any, is kept)."""
        with self._lock:
            self._entries.clear()

    def compact(self) -> Dict[str, int]:
        """Rewrite the journal to the live entries only.

        The journal is append-only: re-stores of a key and entries since
        evicted from the LRU accumulate as dead lines (a large campaign
        makes that bloat real).  Compaction writes the current in-memory
        entries - one line per live key, LRU order - to a sibling temp
        file and atomically replaces the journal, so a crash mid-compact
        leaves the old journal intact.  Returns before/after line and
        byte counts.  Requires a journal-backed cache.
        """
        with self._lock:
            if self.path is None:
                raise ConfigurationError(
                    "this cache has no journal to compact; construct it "
                    "with path=..."
                )
            lines_before = 0
            bytes_before = 0
            if self.path.exists():
                text = self.path.read_text()
                bytes_before = len(text.encode("utf-8"))
                lines_before = sum(1 for line in text.splitlines() if line.strip())
            tmp = self.path.with_name(self.path.name + ".compact")
            with tmp.open("w") as handle:
                for key, payload in self._entries.items():
                    handle.write(_journal_line(key, payload))
            bytes_after = tmp.stat().st_size
            tmp.replace(self.path)
            return {
                "entries": len(self._entries),
                "lines_before": lines_before,
                "lines_after": len(self._entries),
                "bytes_before": bytes_before,
                "bytes_after": bytes_after,
            }

    # ---- observability -----------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: the proof that duplicates cost one run."""
        with self._lock:
            return {
                "size": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "journal_corrupt": self.journal_corrupt,
                "journal_unchecksummed": self.journal_unchecksummed,
                "journal_errors": self.journal_errors,
                "path": str(self.path) if self.path is not None else None,
            }


def verify_journal(path) -> Dict[str, Any]:
    """Audit one cache journal without loading it into a cache.

    Walks every line and reports::

        {"path": ..., "lines": N, "live": a, "stale": b,
         "corrupt": c, "unchecksummed": d, "ok": c == 0}

    ``live`` counts lines that are the *last* valid occurrence of their
    key (what a replay would keep), ``stale`` counts valid lines
    superseded by a later write of the same key, ``corrupt`` counts
    unparsable / wrong-shape / checksum-failing lines, and
    ``unchecksummed`` counts valid pre-CRC lines (a subset of
    live+stale).  The CLI verb ``repro cache verify`` prints this and
    exits 1 when ``corrupt > 0``.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"cache journal {path} does not exist")
    lines = 0
    corrupt = 0
    unchecksummed = 0
    valid = 0
    last_for_key: Dict[str, int] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        lines += 1
        status, key, _ = _classify_line(line)
        if status == "corrupt":
            corrupt += 1
            continue
        if status == "unchecksummed":
            unchecksummed += 1
        valid += 1
        last_for_key[key] = valid  # later valid line supersedes
    live = len(last_for_key)
    return {
        "path": str(path),
        "lines": lines,
        "live": live,
        "stale": valid - live,
        "corrupt": corrupt,
        "unchecksummed": unchecksummed,
        "ok": corrupt == 0,
    }


__all__ = ["ResultCache", "journal_crc", "verify_journal"]
