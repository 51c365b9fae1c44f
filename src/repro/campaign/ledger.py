"""The campaign chunk ledger: append-only JSONL checkpoints.

One ledger file records the progress of one campaign grid.  Line 1 is a
header binding the file to the campaign's grid digest; every following
line checkpoints one *completed* chunk::

    {"format": 1, "campaign": "paper-grid", "digest": "ab12...",
     "chunks": 10, "runs": 200, "chunk_size": 20}
    {"chunk": 0, "keys": ["9f3c...", ...], "results": [{...}, ...]}
    {"chunk": 1, "keys": [...], "results": [...]}

``results`` holds the chunk's run payloads in grid order, each the
canonical text (:func:`repro.codec.encode`) the content-addressed
:class:`~repro.cache.ResultCache` stores, keyed by the parallel ``keys``
list of :meth:`~repro.api.Scenario.cache_key` content addresses.

Crash semantics
---------------

A chunk line is appended as **one** ``write()`` of one JSON line and
flushed before the runner moves on, so killing a campaign leaves the
ledger in one of exactly two shapes:

* truncated at a chunk boundary - every line parses; the missing
  chunks simply re-run on resume;
* torn mid-line - the *final* line is a partial JSON fragment.  Replay
  detects this (a parse failure on the last line only), discards the
  fragment, and the interrupted chunk re-runs.  A parse failure on any
  *earlier* line is corruption, not interruption, and raises
  :class:`~repro.errors.ConfigurationError` naming the line.

Because every run is a deterministic function of its scenario, a
re-executed chunk reproduces byte-identical payloads - which is what
makes the resumed merge equal to an uninterrupted serial run (proven in
``tests/test_campaign.py`` and the CI ``campaign-smoke`` job).

Fault injection (see ``docs/chaos.md``): a ledger built with a
``chaos`` injector consults the ``ledger_append`` point on every
checkpoint - ``torn`` writes half the line and raises
:class:`~repro.chaos.ChaosInterrupt` (a simulated mid-append kill,
leaving exactly the torn-final-line shape replay already tolerates),
``fsync_fail`` simulates a failed flush by rewinding the partial
append and retrying it, so a flaky disk costs a rewrite, never a
corrupt ledger.  ``tests/test_chaos.py`` proves a chaos-interrupted
campaign resumes to a report bit-identical to a fault-free run.

Sharding: shards run disjoint chunk subsets (``--shard i/k``) into
*separate* ledger files; :meth:`CampaignState.load` merges any number of
ledgers for the same digest (duplicate chunk records are tolerated -
determinism makes them identical, last write wins).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import codec
from repro.campaign.spec import CampaignChunk, CampaignSpec
from repro.errors import ConfigurationError

#: Ledger file format version.
LEDGER_FORMAT_VERSION = 1


def _header_dict(spec: CampaignSpec) -> Dict[str, Any]:
    return {
        "format": LEDGER_FORMAT_VERSION,
        "campaign": spec.name,
        "digest": spec.digest(),
        "chunks": spec.total_chunks,
        "runs": spec.total_runs,
        "chunk_size": spec.chunk_size,
    }


class CampaignLedger:
    """Writer for one campaign ledger file.

    Opening creates the file (with its header) if absent; an existing
    file is validated against the spec's digest, so two different grids
    can never interleave in one ledger.
    """

    def __init__(self, path, spec: CampaignSpec, *, chaos=None):
        self.path = Path(path)
        self.spec = spec
        self.digest = spec.digest()
        self.chaos = chaos  # a repro.chaos.ChaosInjector, or None
        self.fsync_retries = 0  # appends rewound and retried
        if self.path.exists() and self.path.stat().st_size > 0:
            header, _, _ = _read_ledger(self.path)
            _check_header(header, spec, path=self.path)
            self._trim_torn_tail()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("w") as handle:
                handle.write(json.dumps(_header_dict(spec), sort_keys=True) + "\n")
                handle.flush()

    def _trim_torn_tail(self) -> None:
        """Drop a torn final fragment (a mid-append kill leaves no
        trailing newline) so the next append starts on a fresh line
        instead of gluing its checkpoint onto the fragment - which
        would turn one discarded line into mid-file corruption."""
        text = self.path.read_text()
        if not text or text.endswith("\n"):
            return
        cut = text.rfind("\n") + 1
        with self.path.open("r+") as handle:
            handle.truncate(cut)

    def append_chunk(self, chunk: CampaignChunk, texts: Sequence[str]) -> None:
        """Checkpoint one completed chunk's result texts (single write +
        flush)."""
        if len(texts) != len(chunk):
            raise ConfigurationError(
                f"chunk {chunk.index} holds {len(chunk)} scenarios but "
                f"{len(texts)} results were supplied"
            )
        fields = {"chunk": chunk.index, "keys": chunk.keys()}
        line = codec.splice(fields, "results", "[" + ", ".join(texts) + "]") + "\n"
        mode = (
            self.chaos.fire("ledger_append", f"chunk {chunk.index}")
            if self.chaos is not None
            else None
        )
        if mode == "torn":
            # A kill mid-append: half the line reaches the disk, then
            # the "process" dies.  Replay discards the torn final line
            # and the chunk re-runs on resume.
            from repro.chaos import ChaosInterrupt

            with self.path.open("a") as handle:
                handle.write(line[: max(1, len(line) // 2)])
                handle.flush()
            raise ChaosInterrupt(
                f"chaos: ledger append for chunk {chunk.index} torn "
                "mid-write (simulated kill)"
            )
        if mode == "fsync_fail":
            # A failed flush: rewind the partial append and retry it,
            # so the ledger never holds a half-trusted checkpoint.
            with self.path.open("a") as handle:
                size_before = handle.tell()
                handle.write(line[: max(1, len(line) // 2)])
            with self.path.open("r+") as handle:
                handle.truncate(size_before)
            self.fsync_retries += 1
        with self.path.open("a") as handle:
            handle.write(line)
            handle.flush()


def _check_header(
    header: Dict[str, Any], spec: CampaignSpec, *, path: Path
) -> None:
    digest = spec.digest()
    if header.get("digest") != digest:
        raise ConfigurationError(
            f"ledger {path} was written for campaign "
            f"{header.get('campaign')!r} with grid digest "
            f"{str(header.get('digest'))[:12]}..., but this spec's digest is "
            f"{digest[:12]}...; the chunk indexes would name different "
            "scenarios (start a fresh ledger, or use the original spec)"
        )
    if header.get("format") != LEDGER_FORMAT_VERSION:
        raise ConfigurationError(
            f"ledger {path} uses format version {header.get('format')!r}, "
            f"but this reader understands version {LEDGER_FORMAT_VERSION}"
        )


def _read_ledger(path: Path):
    """``(header, {chunk index: record}, torn)`` from one ledger file.

    ``torn`` is True when the final line was a partial JSON fragment
    (an interrupted mid-chunk append) and was discarded.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read ledger {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ConfigurationError(f"ledger {path} is empty (no header line)")
    records: Dict[int, Dict[str, Any]] = {}
    header: Optional[Dict[str, Any]] = None
    torn = False
    last = len(lines) - 1
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == last:
                # The one legal malformation: an append cut short by a
                # kill.  The chunk it described simply re-runs.
                torn = True
                break
            raise ConfigurationError(
                f"ledger {path} line {lineno + 1} is not valid JSON "
                f"(and is not the final line, so this is corruption, not "
                f"an interrupted append): {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"ledger {path} line {lineno + 1} must hold a JSON object, "
                f"got {type(record).__name__}"
            )
        if lineno == 0:
            if "digest" not in record:
                raise ConfigurationError(
                    f"ledger {path} line 1 is not a campaign header "
                    "(missing 'digest')"
                )
            header = record
            continue
        _validate_chunk_record(record, path=path, lineno=lineno + 1)
        records[record["chunk"]] = record
    if header is None:
        # File held exactly one line and it tore: indistinguishable from
        # an interrupted header write - treat as an unusable ledger.
        raise ConfigurationError(
            f"ledger {path} has no complete header line; delete it and "
            "start over"
        )
    return header, records, torn


def _validate_chunk_record(
    record: Dict[str, Any], *, path: Path, lineno: int
) -> None:
    where = f"ledger {path} line {lineno}"
    chunk = record.get("chunk")
    if isinstance(chunk, bool) or not isinstance(chunk, int) or chunk < 0:
        raise ConfigurationError(
            f"{where}: 'chunk' must be a non-negative integer, got {chunk!r}"
        )
    keys = record.get("keys")
    results = record.get("results")
    if not isinstance(keys, list) or not all(
        isinstance(key, str) for key in keys
    ):
        raise ConfigurationError(
            f"{where}: 'keys' must be a list of content-address strings"
        )
    if not isinstance(results, list) or not all(
        isinstance(item, dict) for item in results
    ):
        raise ConfigurationError(
            f"{where}: 'results' must be a list of run-result payload dicts"
        )
    if len(keys) != len(results):
        raise ConfigurationError(
            f"{where}: {len(keys)} keys but {len(results)} results"
        )


@dataclass
class CampaignState:
    """Replayed progress of a campaign: which chunks are checkpointed.

    Loaded from one or more ledger files (shards write separate
    ledgers); exposes the completed chunk records and the resume
    arithmetic the runner, ``status`` verb and report builder share.
    """

    spec: CampaignSpec
    completed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    torn_tails: int = 0
    paths: List[Path] = field(default_factory=list)

    @classmethod
    def load(cls, spec: CampaignSpec, paths) -> "CampaignState":
        """Replay ``paths`` (ledger files for this spec's digest).

        Missing files are fine - they just contribute nothing (a fresh
        campaign has no ledger yet).
        """
        if isinstance(paths, (str, Path)):
            paths = [paths]
        state = cls(spec=spec)
        total = spec.total_chunks
        for path in paths:
            path = Path(path)
            state.paths.append(path)
            if not path.exists() or path.stat().st_size == 0:
                continue
            header, records, torn = _read_ledger(path)
            _check_header(header, spec, path=path)
            if torn:
                state.torn_tails += 1
            for index, record in records.items():
                if index >= total:
                    raise ConfigurationError(
                        f"ledger {path} checkpoints chunk {index}, but this "
                        f"campaign plans only {total} chunks"
                    )
                if len(record["keys"]) != spec.chunk_length(index):
                    raise ConfigurationError(
                        f"ledger {path} chunk {index} holds "
                        f"{len(record['keys'])} runs, but the plan says "
                        f"{spec.chunk_length(index)}"
                    )
                state.completed[index] = record
        return state

    # ---- resume arithmetic -------------------------------------------

    @property
    def chunks_done(self) -> int:
        return len(self.completed)

    @property
    def runs_done(self) -> int:
        return sum(len(record["keys"]) for record in self.completed.values())

    @property
    def complete(self) -> bool:
        return self.chunks_done == self.spec.total_chunks

    def remaining(self) -> List[int]:
        """Chunk indexes still to run, in plan order."""
        return [
            index
            for index in range(self.spec.total_chunks)
            if index not in self.completed
        ]

    def record_for(self, index: int) -> Dict[str, Any]:
        record = self.completed.get(index)
        if record is None:
            raise ConfigurationError(
                f"chunk {index} is not checkpointed in "
                f"{[str(p) for p in self.paths]}; the campaign is incomplete "
                "(run 'campaign resume' first, or build a partial report)"
            )
        return record

    def status_dict(self) -> Dict[str, Any]:
        spec = self.spec
        return {
            "campaign": spec.name,
            "digest": spec.digest(),
            "ledgers": [str(path) for path in self.paths],
            "chunks": {"total": spec.total_chunks, "done": self.chunks_done},
            "runs": {"total": spec.total_runs, "done": self.runs_done},
            "torn_tails": self.torn_tails,
            "complete": self.complete,
        }


__all__ = [
    "LEDGER_FORMAT_VERSION",
    "CampaignLedger",
    "CampaignState",
]
