"""The campaign runner: execute planned chunks, checkpoint, resume.

:func:`run_campaign` drives one session of a campaign:

1. replay the ledger (:class:`~repro.campaign.ledger.CampaignState`) and
   skip every checkpointed chunk - *resume is the default behavior*,
   a fresh campaign is just a resume with an empty ledger;
2. execute the remaining chunks in plan order, each through the
   existing :func:`repro.api.run_scenarios` pool (``workers=``) with an
   optional shared :class:`~repro.cache.ResultCache` - or, with
   ``server=``, by submitting the chunk to a remote ``repro serve``
   instance via :class:`~repro.client.Client` so every shard reuses one
   server-side cache;
3. append each completed chunk to the ledger *before* moving on, so an
   interruption loses at most the in-flight chunk.

Counters (:class:`CampaignOutcome`) prove the resume contract: how many
runs actually executed this session vs. came from the ledger, the
cache, or a remote coalesced execution.  The CI ``campaign-smoke`` job
and ``tests/test_campaign.py`` assert that after an interruption the
resumed session executes exactly the non-checkpointed chunks and the
merged report is bit-identical to an uninterrupted serial run.

Sharding: ``shard=(i, k)`` makes this session responsible for chunks
with ``index % k == i`` only.  Shards write separate ledger files;
:func:`campaign_status` / :func:`~repro.campaign.report.build_report`
merge any number of ledgers for the same grid digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import codec
from repro.api import run_scenarios
from repro.campaign.ledger import CampaignLedger, CampaignState
from repro.campaign.report import CampaignReport, build_report
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError


def parse_shard(text: str) -> Tuple[int, int]:
    """``"i/k"`` -> ``(i, k)`` with ``0 <= i < k`` (the CLI grammar)."""
    parts = text.split("/")
    try:
        if len(parts) != 2:
            raise ValueError
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigurationError(
            f"a shard is spelled INDEX/COUNT (e.g. '0/4'), got {text!r}"
        ) from None
    _check_shard((index, count))
    return index, count


def _check_shard(shard: Tuple[int, int]) -> None:
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ConfigurationError(
            f"shard index must satisfy 0 <= index < count, got "
            f"{index}/{count}"
        )


@dataclass
class CampaignOutcome:
    """What one runner session did (and what the ledger now holds)."""

    spec: CampaignSpec
    state: CampaignState
    chunks_executed: int = 0
    chunks_skipped: int = 0      # checkpointed before this session
    chunks_foreign: int = 0      # owned by other shards
    executed_runs: int = 0       # scenarios actually simulated here
    cache_hits: int = 0          # served by the local shared cache
    remote_hits: int = 0         # served by the server's cache
    remote_coalesced: int = 0    # attached to an in-flight remote run
    interrupted: bool = False    # stopped early by max_chunks
    shard: Optional[Tuple[int, int]] = None
    errors: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.state.complete

    def status_dict(self) -> Dict[str, Any]:
        data = self.state.status_dict()
        data["session"] = self.execution_dict()
        return data

    def execution_dict(self) -> Dict[str, Any]:
        """The provenance counters - everything a bit-equality check
        must *exclude* (see :mod:`repro.campaign.report`)."""
        data: Dict[str, Any] = {
            "chunks_executed": self.chunks_executed,
            "chunks_skipped": self.chunks_skipped,
            "executed_runs": self.executed_runs,
            "cache_hits": self.cache_hits,
            "interrupted": self.interrupted,
        }
        if self.shard is not None:
            data["shard"] = f"{self.shard[0]}/{self.shard[1]}"
            data["chunks_foreign"] = self.chunks_foreign
        if self.remote_hits or self.remote_coalesced:
            data["remote_hits"] = self.remote_hits
            data["remote_coalesced"] = self.remote_coalesced
        return data

    def report(self, *, partial: bool = False) -> CampaignReport:
        return build_report(
            self.spec,
            self.state,
            partial=partial,
            execution=self.execution_dict(),
        )


def _execute_local(chunk, *, workers, cache):
    """Run one chunk in-process; ``(results, executed, hits)``."""
    if cache is None:
        results = run_scenarios(list(chunk.scenarios), workers=workers)
        return results, len(chunk), 0
    before = cache.stats()
    results = run_scenarios(list(chunk.scenarios), workers=workers, cache=cache)
    after = cache.stats()
    executed = after["misses"] - before["misses"]
    hits = after["hits"] - before["hits"]
    return results, executed, hits


def _execute_remote(chunk, *, client, timeout):
    """Submit one chunk to a run server; ``(results, executed, hits,
    coalesced)`` from the job's per-slot sources."""
    document = {
        "scenarios": [scenario.to_dict() for scenario in chunk.scenarios]
    }
    from repro.client import served_results

    snapshot = client.settle(document, timeout=timeout)
    results = served_results(snapshot["results"])
    sources = snapshot["sources"]
    return (
        results,
        sources.count("run"),
        sources.count("cache"),
        sources.count("coalesced"),
    )


def run_campaign(
    spec: CampaignSpec,
    ledger_path,
    *,
    workers: Optional[int] = None,
    cache=None,
    server: Optional[Union[str, Any]] = None,
    timeout: float = 600.0,
    shard: Optional[Tuple[int, int]] = None,
    max_chunks: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    chaos=None,
) -> CampaignOutcome:
    """Execute (or resume) a campaign against one ledger file.

    Parameters
    ----------
    workers:
        :func:`repro.api.run_scenarios` pool size per chunk (local mode).
    cache:
        a shared :class:`~repro.cache.ResultCache`; chunks consult it
        before executing and fill it after, so repeated or overlapping
        campaigns reuse runs (metrics are bit-identical either way).
    server:
        base URL of a running ``repro serve`` (or a ready
        :class:`~repro.client.Client`); chunks are submitted as
        ``scenarios`` documents and the *server's* content-addressed
        cache plays the role ``cache`` plays locally - which is how
        several shards on several machines share one memo.
    shard:
        ``(index, count)``: this session only runs chunks with
        ``chunk.index % count == index``.
    max_chunks:
        stop (``interrupted=True``) after executing this many chunks -
        the deliberate-interruption hook the resume tests and the CI
        smoke job use.
    progress:
        callable receiving one line per chunk (the CLI passes a stderr
        printer).
    chaos:
        a chaos spec (string/dict) or live
        :class:`~repro.chaos.ChaosInjector`; threads the
        ``ledger_append`` injection point through this session's ledger
        writes (see ``docs/chaos.md``).  An injected torn append raises
        :class:`~repro.chaos.ChaosInterrupt` exactly like a real kill;
        resuming afterwards is the chaos harness's headline proof.
    """
    if cache is not None and server is not None:
        raise ConfigurationError(
            "pass either a local result cache or a remote server, not both "
            "(in remote mode the server's cache is the shared memo)"
        )
    if shard is not None:
        _check_shard(shard)
    if max_chunks is not None and (
        isinstance(max_chunks, bool) or not isinstance(max_chunks, int) or max_chunks < 0
    ):
        raise ConfigurationError(
            f"max_chunks must be a non-negative integer, got {max_chunks!r}"
        )
    client = None
    if server is not None:
        if isinstance(server, str):
            from repro.client import Client

            client = Client(server)
        else:
            client = server
    from repro.chaos import chaos_from_spec

    state = CampaignState.load(spec, ledger_path)
    ledger = CampaignLedger(ledger_path, spec, chaos=chaos_from_spec(chaos))
    outcome = CampaignOutcome(spec=spec, state=state, shard=shard)
    emit = progress if progress is not None else (lambda line: None)
    for chunk in spec.chunks():
        if shard is not None and chunk.index % shard[1] != shard[0]:
            outcome.chunks_foreign += 1
            continue
        if chunk.index in state.completed:
            outcome.chunks_skipped += 1
            continue
        if max_chunks is not None and outcome.chunks_executed >= max_chunks:
            outcome.interrupted = True
            emit(
                f"chunk {chunk.index}: stopping (max_chunks={max_chunks} "
                "reached); resume to continue"
            )
            break
        if client is not None:
            results, executed, hits, coalesced = _execute_remote(
                chunk, client=client, timeout=timeout
            )
            outcome.remote_hits += hits
            outcome.remote_coalesced += coalesced
        else:
            results, executed, hits = _execute_local(
                chunk, workers=workers, cache=cache
            )
            outcome.cache_hits += hits
        texts = [codec.encode(result) for result in results]
        ledger.append_chunk(chunk, texts)
        record = {"chunk": chunk.index, "keys": chunk.keys(), "results": texts}
        state.completed[chunk.index] = record
        outcome.chunks_executed += 1
        outcome.executed_runs += executed
        emit(
            f"chunk {chunk.index + 1}/{spec.total_chunks}: "
            f"{len(chunk)} runs ({executed} executed, "
            f"{len(chunk) - executed} reused)"
        )
    return outcome


def campaign_status(spec: CampaignSpec, ledger_paths) -> CampaignState:
    """Replay ledgers without executing anything (the ``status`` verb)."""
    return CampaignState.load(spec, ledger_paths)


__all__ = [
    "CampaignOutcome",
    "campaign_status",
    "parse_shard",
    "run_campaign",
]
