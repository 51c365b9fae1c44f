"""Job queue for the run server: submissions, dedup, execution.

A *job* is one submitted document (scenario, sweep, suite, or explicit
scenario list) expanded into an ordered list of scenario *slots*.  Each
slot resolves from exactly one of three sources:

* ``cache`` - the content-addressed :class:`~repro.cache.ResultCache`
  already holds the key (counted as a cache hit);
* ``coalesced`` - another job is *currently executing* the same key, so
  this slot subscribes to that in-flight execution instead of running
  again (the ``coalesced`` counter is the duplicate-submission proof:
  thousands of concurrent identical submissions resolve to one run);
* ``run`` - this job claims the key and executes it on the store's
  worker pool via :func:`repro.api.run_scenarios` (counted as a cache
  miss, then stored).

Job states are ``submitted`` (queued, nothing started), ``running``,
``done`` and ``failed``.  Results are served in submission order as
lossless :meth:`~repro.sim.metrics.RunResult.to_dict` (``full=True``)
payloads with the *submitting* scenario echoed as ``config`` - so a
served result is bit-identical to what ``Scenario.run()`` returns
in-process, hit or miss.  Slots hold the cache's canonical result
texts (:mod:`repro.codec`), which :meth:`Job.to_json` splices in.

Failure handling (see ``docs/chaos.md``): an execution that dies on an
*unexpected* exception (a worker crash, an injected
:class:`~repro.chaos.InjectedFault`) is retried up to ``retries`` times
with a bounded deterministic backoff; one that keeps failing is
**quarantined** - its key is released (never cached) and the job turns
``failed`` with the error surfaced through ``GET /jobs/<id>`` and the
client, instead of leaving submitters long-polling forever.  Errors in
the package's own taxonomy (:class:`~repro.errors.ReproError`) are
deterministic answers and fail fast without retry.
:meth:`JobStore.drain` is the graceful-shutdown half: refuse new
submissions, finish everything queued, then resolve any leaked
execution with a typed error so every waiter returns promptly.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import codec
from repro.api import Scenario, Sweep, run_scenarios
from repro.cache import ResultCache
from repro.codec import DOCUMENT_KINDS
from repro.errors import ConfigurationError, ReproError, ServerError
from repro.suites import Suite

#: Seconds an injected ``worker=delay`` chaos fault adds to one
#: execution (small on purpose: visible to assertions, cheap in tests).
CHAOS_WORKER_DELAY_SECONDS = 0.02

JOB_STATES = ("submitted", "running", "done", "failed")


def scenarios_from_document(document: Any) -> Tuple[str, List[Scenario]]:
    """``(kind, scenarios)`` from a wire document.

    The wire format is one dict holding exactly one of ``scenario`` (a
    Scenario dict), ``sweep`` (a Sweep dict, expanded to its grid),
    ``suite`` (a Suite dict, expanded to every entry's runs; pins are
    ignored - the server executes, it does not referee), or
    ``scenarios`` (an explicit non-empty list of Scenario dicts).
    Malformed documents raise :class:`ConfigurationError` naming the
    offending field and value - the server maps that to HTTP 400.
    """
    codec.check_fields(document, "job document", DOCUMENT_KINDS)
    kinds = [kind for kind in DOCUMENT_KINDS if kind in document]
    if len(kinds) != 1:
        raise ConfigurationError(
            "a job document must hold exactly one of "
            + ", ".join(repr(kind) for kind in DOCUMENT_KINDS)
            + (f"; got field(s) {sorted(document)}" if document else "; got an empty dict")
        )
    kind = kinds[0]
    if kind == "scenario":
        return kind, [Scenario.from_dict(document["scenario"])]
    if kind == "sweep":
        return kind, list(Sweep.from_dict(document["sweep"]).scenarios())
    if kind == "scenarios":
        raw = document["scenarios"]
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError(
                f"'scenarios' must be a non-empty list of scenario dicts, "
                f"got {raw!r}"
            )
        return kind, [Scenario.from_dict(item) for item in raw]
    suite = Suite.from_dict(document["suite"])
    return kind, [
        scenario for entry in suite.entries for scenario in entry.scenarios()
    ]


class _Execution:
    """One in-flight run of a distinct cache key; duplicates subscribe."""

    __slots__ = ("key", "scenario", "event", "started", "payload", "error_type", "error")

    def __init__(self, key: str, scenario: Scenario):
        self.key = key
        self.scenario = scenario
        self.event = threading.Event()
        self.started = False
        self.payload: Optional[str] = None  # the result's canonical text
        self.error_type: Optional[str] = None
        self.error: Optional[str] = None


@dataclass
class _Slot:
    """One scenario position of a job and how it resolves."""

    scenario: Scenario
    key: str
    source: str  # "cache" | "run" | "coalesced"
    payload: Optional[str] = None  # the result's canonical text
    execution: Optional[_Execution] = None

    def result_payload(self) -> Optional[str]:
        return self.payload if self.execution is None else self.execution.payload


@dataclass
class Job:
    """One submitted document, tracked through to its results."""

    id: str
    kind: str
    slots: List[_Slot] = field(default_factory=list)

    @property
    def error(self) -> Optional[Tuple[str, str]]:
        """``(type name, message)`` of the first failed execution."""
        for slot in self.slots:
            execution = slot.execution
            if execution is not None and execution.error is not None:
                return execution.error_type, execution.error
        return None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "failed"
        if all(slot.result_payload() is not None for slot in self.slots):
            return "done"
        if any(
            slot.execution is not None and slot.execution.started
            for slot in self.slots
        ):
            return "running"
        return "submitted"

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every slot resolves (or fails); ``False`` on
        timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for slot in self.slots:
            if slot.execution is None:
                continue
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not slot.execution.event.wait(remaining):
                return False
        return True

    def as_dict(self) -> Dict[str, Any]:
        """The job snapshot without its results (see :meth:`to_json`)."""
        status = self.status
        payload: Dict[str, Any] = {
            "job": self.id,
            "kind": self.kind,
            "status": status,
            "runs": len(self.slots),
            "keys": [slot.key for slot in self.slots],
            "sources": [slot.source for slot in self.slots],
        }
        if status == "failed":
            error_type, message = self.error
            payload["error"] = {"type": error_type, "message": message}
        return payload

    def to_json(self, **fields: Any) -> str:
        """``json.dumps`` (``sort_keys=True``) of the snapshot plus
        ``fields``, with ``results`` once done.  Hit or miss, each echoes
        the *submitting* scenario, as Scenario.run() would have."""
        snapshot = {**self.as_dict(), **fields}
        if snapshot["status"] != "done":
            return json.dumps(snapshot, sort_keys=True)
        texts = [codec.with_config(slot.result_payload(), slot.scenario.to_dict())
                 for slot in self.slots]
        return codec.splice(snapshot, "results", "[" + ", ".join(texts) + "]")


class JobStore:
    """Submission front end: dedup against the cache and in-flight runs,
    execute the rest on a worker pool."""

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        job_workers: int = 4,
        run_workers: Optional[int] = None,
        max_jobs: int = 10_000,
        retries: int = 3,
        retry_backoff: float = 0.05,
        chaos=None,
    ):
        if isinstance(job_workers, bool) or not isinstance(job_workers, int) or job_workers < 1:
            raise ConfigurationError(
                f"job_workers must be a positive integer, got {job_workers!r}"
            )
        if run_workers is not None and (
            isinstance(run_workers, bool)
            or not isinstance(run_workers, int)
            or run_workers < 1
        ):
            raise ConfigurationError(
                f"run_workers must be a positive integer or None, got {run_workers!r}"
            )
        if isinstance(retries, bool) or not isinstance(retries, int) or retries < 1:
            raise ConfigurationError(
                f"retries must be a positive integer (total attempts per "
                f"execution), got {retries!r}"
            )
        if (
            isinstance(retry_backoff, bool)
            or not isinstance(retry_backoff, (int, float))
            or retry_backoff < 0
        ):
            raise ConfigurationError(
                f"retry_backoff must be a non-negative number, got {retry_backoff!r}"
            )
        self.cache = cache if cache is not None else ResultCache()
        self.run_workers = run_workers
        self.max_jobs = max_jobs
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.chaos = chaos  # a repro.chaos.ChaosInjector, or None
        self._sleep = time.sleep  # injectable for deterministic tests
        self._executor = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-job"
        )
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: Dict[str, _Execution] = {}
        self._counter = 0
        self._closing = False
        self.submitted = 0     # documents accepted
        self.executions = 0    # scenario runs actually executed
        self.coalesced = 0     # slots attached to an in-flight duplicate
        self.retried = 0       # execution attempts after a worker crash
        self.quarantined = 0   # executions failed after all retries

    # ---- submission --------------------------------------------------

    def submit(self, scenarios: List[Scenario], *, kind: str = "scenario") -> Job:
        """Register one job; claim un-cached, un-inflight keys and hand
        them to the worker pool.  Returns immediately."""
        for scenario in scenarios:
            scenario.validate()  # 400 now, not a failed job later
        claimed: List[_Execution] = []
        with self._lock:
            if self._closing:
                raise ServerError(
                    "the job store is draining for shutdown and accepts no "
                    "new submissions"
                )
            self._counter += 1
            self.submitted += 1
            job = Job(id=f"j-{self._counter:06d}", kind=kind)
            for scenario in scenarios:
                key = scenario.cache_key()
                execution = self._inflight.get(key)
                if execution is not None:
                    self.coalesced += 1
                    job.slots.append(
                        _Slot(scenario, key, "coalesced", execution=execution)
                    )
                    continue
                payload = self.cache.get_payload(key)
                if payload is not None:
                    job.slots.append(
                        _Slot(scenario, key, "cache", payload=payload)
                    )
                    continue
                execution = _Execution(key, scenario)
                self._inflight[key] = execution
                claimed.append(execution)
                job.slots.append(
                    _Slot(scenario, key, "run", execution=execution)
                )
            self._jobs[job.id] = job
            self._evict_done_jobs()
        for execution in claimed:
            # One pool task per execution (not per batch): a crash or a
            # quarantine is then isolated to one scenario, and retries
            # never hold up the rest of the submission.
            self._executor.submit(self._run_one, execution)
        return job

    def _evict_done_jobs(self) -> None:
        # Called under the lock.  Drop the oldest finished jobs beyond
        # the cap; running jobs are never evicted.  The walk stops at the
        # last job it drops, so a submit at the cap visits only the
        # running jobs ahead of it, not the whole table.
        excess = len(self._jobs) - self.max_jobs
        if excess <= 0:
            return
        finished = []
        for job in self._jobs.values():
            if job.status in ("done", "failed"):
                finished.append(job.id)
                if len(finished) == excess:
                    break
        for job_id in finished:
            del self._jobs[job_id]

    # ---- execution ---------------------------------------------------

    def _retry_delays(self) -> List[float]:
        """Bounded deterministic backoff: one sleep before each retry
        (``retry_backoff * 2**i``)."""
        return [self.retry_backoff * (2 ** i) for i in range(self.retries - 1)]

    def _run_one(self, execution: _Execution) -> None:
        """Execute one claimed key: bounded retries on unexpected
        crashes, quarantine (a surfaced ``failed`` state, never cached)
        when every attempt dies."""
        execution.started = True
        delays = self._retry_delays()
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retries):
            if attempt:
                with self._lock:
                    self.retried += 1
                self._sleep(delays[attempt - 1])
            try:
                mode = (
                    self.chaos.fire("worker", execution.key)
                    if self.chaos is not None
                    else None
                )
                if mode == "crash":
                    from repro.chaos import InjectedFault

                    raise InjectedFault(
                        f"chaos: injected worker crash running {execution.key}"
                    )
                if mode == "delay":
                    self._sleep(CHAOS_WORKER_DELAY_SECONDS)
                result = run_scenarios(
                    [execution.scenario], workers=self.run_workers
                )[0]
            except ReproError as exc:
                # The package's own taxonomy is deterministic: the same
                # scenario fails the same way every time, so retrying
                # only burns backoff.  Fail fast.
                last_exc = exc
                break
            except Exception as exc:
                last_exc = exc
                continue
            payload = self.cache.put(execution.key, result)
            execution.payload = payload
            with self._lock:
                self.executions += 1
                self._inflight.pop(execution.key, None)
            execution.event.set()
            return
        # Quarantine: release the key un-cached, surface the error.  A
        # later resubmission re-executes from scratch.
        with self._lock:
            self.quarantined += 1
            self._inflight.pop(execution.key, None)
        execution.error_type = type(last_exc).__name__
        execution.error = str(last_exc)
        execution.event.set()

    # ---- lookup ------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            by_status = Counter(job.status for job in self._jobs.values())
            return {
                "jobs": {
                    "submitted": self.submitted,
                    "tracked": len(self._jobs),
                    "by_status": dict(sorted(by_status.items())),
                },
                "executions": self.executions,
                "coalesced": self.coalesced,
                "retried": self.retried,
                "quarantined": self.quarantined,
                "inflight": len(self._inflight),
                "draining": self._closing,
                "cache": self.cache.stats(),
            }

    # ---- shutdown ----------------------------------------------------

    def drain(self) -> Dict[str, Any]:
        """Graceful shutdown: refuse new work, finish everything queued,
        resolve any leaked execution with a typed error.

        Returns the drain report::

            {"drained_jobs": N, "leaked_keys": [...], "leaked_jobs":
             [...], "cache": {...}}

        On a clean drain ``leaked_keys``/``leaked_jobs`` are empty -
        every in-flight execution either completed (and was journaled)
        or quarantined.  Anything still unresolved after the worker pool
        stops (which should not happen) gets a :class:`ServerError` set
        and its event fired, so long-pollers return promptly instead of
        hanging out their full wait.
        """
        with self._lock:
            self._closing = True
        # Finish queued + running executions; every _run_one resolves
        # its execution (payload or quarantine) before returning.
        self._executor.shutdown(wait=True)
        leaked_keys: List[str] = []
        with self._lock:
            for key, execution in list(self._inflight.items()):
                if not execution.event.is_set():
                    execution.error_type = "ServerError"
                    execution.error = (
                        f"server shut down before execution {key} completed; "
                        "resubmit to re-run"
                    )
                    execution.event.set()
                    leaked_keys.append(key)
            self._inflight.clear()
            leaked_jobs = sorted(
                job.id
                for job in self._jobs.values()
                if job.status not in ("done", "failed")
            )
            drained = sum(
                1 for job in self._jobs.values() if job.status == "done"
            )
        return {
            "drained_jobs": drained,
            "leaked_keys": leaked_keys,
            "leaked_jobs": leaked_jobs,
            "cache": self.cache.stats(),
        }

    def close(self) -> None:
        with self._lock:
            self._closing = True
        self._executor.shutdown(wait=True)


__all__ = [
    "DOCUMENT_KINDS",
    "JOB_STATES",
    "Job",
    "JobStore",
    "scenarios_from_document",
]
