"""Simulation-as-a-service: the ``repro serve`` run server.

A stdlib-only HTTP/JSON daemon that accepts Scenario / Sweep / Suite
documents, executes them on the :func:`repro.api.run_scenarios` worker
pool, and memoizes completed runs in a content-addressed
:class:`~repro.cache.ResultCache` keyed by
:meth:`repro.api.Scenario.cache_key` - so duplicate submissions cost one
run.  See ``docs/serve.md`` for the wire format and consistency
guarantees, and :mod:`repro.client` for the matching client API.
"""

from repro.server.app import (
    IDLE_TIMEOUT_SECONDS,
    MAX_BODY_BYTES,
    MAX_WAIT_SECONDS,
    RateLimiter,
    ReproServer,
    serve,
)
from repro.server.jobs import (
    DOCUMENT_KINDS,
    JOB_STATES,
    Job,
    JobStore,
    scenarios_from_document,
)

__all__ = [
    "DOCUMENT_KINDS",
    "IDLE_TIMEOUT_SECONDS",
    "JOB_STATES",
    "MAX_BODY_BYTES",
    "MAX_WAIT_SECONDS",
    "Job",
    "JobStore",
    "RateLimiter",
    "ReproServer",
    "scenarios_from_document",
    "serve",
]
