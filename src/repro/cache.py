"""Content-addressed result cache: one run per distinct scenario.

Every run in this package is a deterministic function of its scenario's
canonical dict, so a cache keyed by :meth:`repro.api.Scenario.cache_key`
(SHA-256 of that dict) gives **exact** hits: a cached result is
bit-identical to re-running the scenario.  That is what makes a
long-lived run service cheap - a million identical-config requests cost
one execution (see ``docs/serve.md``).

:class:`ResultCache` is an in-memory LRU with optional append-only JSONL
persistence:

* ``put(key, result)`` stores the result's canonical text
  (:func:`repro.codec.encode`), ``get(key)`` decodes it into a fresh
  :class:`~repro.sim.metrics.RunResult` equal to what a direct run
  produced, and ``get_payload(key)`` / ``peek(key)`` return the stored
  text itself, which the server splices into its answers.  The
  ``config`` echo is left out: it names the *submitting* scenario, not
  the content address, and callers re-attach their own.
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
not parse, has the wrong shape, fails its checksum or does not decode is
**skipped and counted** on replay (``journal_corrupt``), so its key runs
again; pre-CRC lines without a ``crc`` field still load
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
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional

from repro import codec
from repro.errors import ConfigurationError
from repro.sim.metrics import RunResult


def journal_crc(key: str, text: str) -> int:
    """CRC32 of a journal record's canonical ``{"key", "result"}`` text."""
    return zlib.crc32(codec.splice({"key": key}, "result", text).encode()) & 0xFFFFFFFF


def _journal_line(key: str, text: str) -> str:
    return codec.splice({"crc": journal_crc(key, text), "key": key}, "result", text) + "\n"


def _scan_journal(path: Path):
    """``(status, key, text)`` per non-blank journal line: status is
    ``"ok"``, ``"unchecksummed"`` or ``"corrupt"``, ``text`` the entry's
    canonical result text."""
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, payload = record["key"], record["result"]
            if (
                not isinstance(key, str)
                or not isinstance(payload, dict)
                or set(record) - {"key", "result", "crc"}
            ):
                raise ValueError("wrong shape")
            if "crc" in record and record["crc"] != journal_crc(
                key, json.dumps(payload, sort_keys=True)
            ):
                raise ValueError("checksum mismatch")
            # A checksum cannot vouch for the content: decode it too.
            text = codec.encode(codec.decode(payload))
        except (ConfigurationError, KeyError, TypeError, ValueError):
            yield "corrupt", None, None
            continue
        yield ("ok" if "crc" in record else "unchecksummed"), key, text


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
        self._entries: "OrderedDict[str, str]" = OrderedDict()  # key -> text
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
        for status, key, text in _scan_journal(self.path):
            if status == "corrupt":
                self.journal_corrupt += 1
                continue
            if status == "unchecksummed":
                self.journal_unchecksummed += 1
            self._insert(key, text)

    def _append_journal(self, key: str, text: str) -> None:
        if self.path is None:
            return
        line = _journal_line(key, text)
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

    def _insert(self, key: str, text: str) -> None:
        self._entries[key] = text
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key`` as a fresh :class:`RunResult`
        (``config`` is ``None`` - attach the requester's echo), or
        ``None``.  Counts one hit or miss."""
        text = self.get_payload(key)
        return None if text is None else codec.decode(text)

    def get_payload(self, key: str) -> Optional[str]:
        """Like :meth:`get` but returns the stored canonical text, which
        the server splices into its answers as is."""
        with self._lock:
            text = self._entries.get(key)
            if text is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return text

    def peek(self, key: str) -> Optional[str]:
        """The stored text without touching counters or LRU order
        (the ``GET /results/<key>`` endpoint, stats tooling)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, result: RunResult) -> str:
        """Store ``result`` under ``key`` and return its canonical text."""
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                f"cache keys are Scenario.cache_key() strings, got {key!r}"
            )
        text = codec.encode(result)
        with self._lock:
            self._insert(key, text)
            self.stores += 1
            self._append_journal(key, text)
        return text

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
            before = self.path.read_bytes() if self.path.exists() else b""
            tmp = self.path.with_name(self.path.name + ".compact")
            with tmp.open("w") as handle:
                for key, text in self._entries.items():
                    handle.write(_journal_line(key, text))
            bytes_after = tmp.stat().st_size
            tmp.replace(self.path)
            return {
                "entries": len(self._entries),
                "lines_before": sum(1 for line in before.splitlines() if line.strip()),
                "lines_after": len(self._entries),
                "bytes_before": len(before),
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
    unparsable / wrong-shape / checksum-failing / undecodable lines, and
    ``unchecksummed`` counts valid pre-CRC lines (a subset of
    live+stale).  The CLI verb ``repro cache verify`` prints this and
    exits 1 when ``corrupt > 0``.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"cache journal {path} does not exist")
    counts: Counter = Counter()
    keys = set()  # a key's last valid line is live, any earlier one stale
    for status, key, _ in _scan_journal(path):
        counts[status] += 1
        if status != "corrupt":
            keys.add(key)
    valid = counts["ok"] + counts["unchecksummed"]
    return {
        "path": str(path),
        "lines": valid + counts["corrupt"],
        "live": len(keys),
        "stale": valid - len(keys),
        "corrupt": counts["corrupt"],
        "unchecksummed": counts["unchecksummed"],
        "ok": counts["corrupt"] == 0,
    }


__all__ = ["ResultCache", "journal_crc", "verify_journal"]
