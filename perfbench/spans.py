"""Layer spans for the traced benchmark run.

Nothing under ``src/`` knows about this module: :func:`install` patches
the public entry points of each layer from outside, so a traced run
times the calls *into* every layer.  :meth:`Spans.enable` and
:meth:`Spans.disable` put the timed and the original entry points in
place, so one process can alternate traced and untraced operations and
measure the tracing overhead on the same inputs at the same time.

Spans are aggregated in memory per thread (calls, total and self
nanoseconds per span name) and read out once, when the run ends.  Self
time is a span's duration minus the durations of the spans it directly
encloses, so the self times of nested layers add up to the outermost
span's duration without double counting.
"""

from __future__ import annotations

import threading
import time
from types import MethodType
from typing import Dict, List


class _ThreadState:
    __slots__ = ("covered", "table")

    def __init__(self):
        # ns covered by the closed spans directly inside the innermost open
        # span (outside every span: by the outermost spans, in total).
        self.covered = 0
        self.table: Dict[str, List[int]] = {}  # name -> [calls, total_ns, self_ns]


class Spans:
    """Per-thread span aggregates plus the patches that produce them.

    ``threaded=False`` is for a process whose spans all run on the thread
    that creates them (the benchmark's worker): each timed function then
    holds its state and row directly instead of looking them up per
    call, which takes about a fifth off the tracing overhead (13% against
    16% on ``small_grid``).  The server child, whose spans run on its
    HTTP and job threads, keeps one state per thread.
    """

    def __init__(self, threaded: bool = True):
        self.threaded = threaded
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[tuple] = []  # (owner, attribute, original, timed)

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def wrap(self, name: str, fn, leaf: bool = False):
        """``fn`` timed as span ``name``.

        ``leaf=True`` marks an entry point that never encloses another
        span and is always called with positional arguments (the
        engine's per-step calls: handlers, delivery, the adversary).
        Without threads, its timed function skips the bookkeeping that
        nested spans need, which takes another sixth off the overhead.
        """
        # The same clock as perf_counter on Linux, and cheaper to read:
        # every span reads it twice.
        clock = time.monotonic_ns
        if not self.threaded:
            state = self._state()
            row = state.table.setdefault(name, [0, 0, 0])
            if leaf:

                def timed(*args):
                    start = clock()
                    try:
                        return fn(*args)
                    finally:
                        elapsed = clock() - start
                        row[0] += 1
                        row[1] += elapsed
                        row[2] += elapsed
                        state.covered += elapsed

                return timed

            def timed(*args, **kwargs):
                outer = state.covered
                state.covered = 0
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - state.covered
                    state.covered = outer + elapsed

            return timed
        local = self._local

        def timed(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = self._state()
            # The enclosing span's children so far wait in a local while
            # this span collects its own; no explicit stack is needed.
            outer = state.covered
            state.covered = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                row = state.table.get(name)
                if row is None:
                    row = state.table[name] = [0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - state.covered
                state.covered = outer + elapsed

        return timed

    def patch(self, owner, attribute: str, name: str, leaf: bool = False) -> None:
        """Register ``owner.attribute`` timed as span ``name``."""
        original = _lookup(owner, attribute)
        if isinstance(original, classmethod):
            self.replace(owner, attribute, classmethod(self.wrap(name, original.__func__)))
        else:
            self.replace(owner, attribute, self.wrap(name, original, leaf))

    def replace(self, owner, attribute: str, timed) -> None:
        """Register ``timed`` to stand in for ``owner.attribute``."""
        self._patches.append((owner, attribute, _lookup(owner, attribute), timed))

    def enable(self) -> None:
        for owner, attribute, _, timed in self._patches:
            setattr(owner, attribute, timed)

    def disable(self) -> None:
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    def snapshot(self) -> Dict[str, object]:
        """``{"spans": {name: [calls, total_ns, self_ns]}, "top_ns": n}``
        summed over every thread (read once the traced work has ended)."""
        merged: Dict[str, List[int]] = {}
        top_ns = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            top_ns += state.covered
            for name, row in state.table.items():
                into = merged.setdefault(name, [0, 0, 0])
                for index in range(3):
                    into[index] += row[index]
        return {"spans": merged, "top_ns": top_ns}


def _lookup(owner, attribute: str):
    # A class's own dict keeps classmethod objects (getattr would bind them).
    return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)


def install(spans: Spans) -> None:
    """Register every layer boundary the benchmark times (disabled).

    A module-level function is patched in every module that imported it
    by name, so each caller reaches the timed version.
    """
    import repro.api as api
    import repro.campaign as campaign
    import repro.campaign.report as campaign_report
    import repro.campaign.runner as campaign_runner
    import repro.core.registry as registry
    import repro.server.jobs as jobs
    from repro.cache import ResultCache
    from repro.campaign.ledger import CampaignLedger, CampaignState
    from repro.campaign.spec import CampaignSpec
    from repro.client import Client
    from repro.sim.async_engine import AsyncEngine
    from repro.sim.columnar import ColumnarMailboxes
    from repro.sim.engine import Engine
    from repro.sim.metrics import RunResult

    spans.patch(api.Scenario, "run", "api.scenario_run")
    run_scenarios = spans.wrap("api.run_scenarios", api.run_scenarios)
    spans.replace(api, "run_scenarios", run_scenarios)
    spans.replace(campaign_runner, "run_scenarios", run_scenarios)
    spans.patch(jobs, "run_scenarios", "server.execute")

    # Handlers and adversaries are timed per instance, on the objects the
    # engine is handed: a process's own inner helpers (D's reversion runs
    # Protocol A inside) stay inside their caller's span.  One timed
    # function per process class, bound to each instance, keeps the
    # per-run cost to one small object per process.
    timed_build = spans.wrap("core.build_processes", registry.build_processes)
    timed_rounds = {}  # process class -> its timed on_round, or None

    def build_processes(*args, **kwargs):
        processes = timed_build(*args, **kwargs)
        for process in processes:
            cls = type(process)
            if cls not in timed_rounds:  # async processes are event-driven
                timed_rounds[cls] = (
                    spans.wrap("core.on_round", cls.on_round, leaf=True)
                    if hasattr(cls, "on_round") else None
                )
            timed = timed_rounds[cls]
            if timed is not None:
                process.on_round = MethodType(timed, process)
        return processes

    spans.replace(registry, "build_processes", build_processes)
    make_adversary = api.adversary_from_spec

    def adversary_from_spec(spec):
        adversary = make_adversary(spec)
        if adversary is not None:
            adversary.decide = spans.wrap("sim.adversary.decide", adversary.decide, leaf=True)
        return adversary

    spans.replace(api, "adversary_from_spec", adversary_from_spec)

    spans.patch(Engine, "__init__", "sim.engine.init")
    spans.patch(Engine, "run", "sim.engine.run")
    spans.patch(AsyncEngine, "run", "sim.async_engine.run")
    for method in ("drain", "head_stamp", "post_broadcast", "post_p2p"):
        spans.patch(ColumnarMailboxes, method, f"sim.columnar.{method}", leaf=True)
    spans.patch(RunResult, "to_dict", "sim.metrics.to_dict")
    spans.patch(RunResult, "from_dict", "sim.metrics.from_dict")
    spans.patch(ResultCache, "get_payload", "cache.get_payload")
    spans.patch(ResultCache, "put", "cache.put")
    spans.patch(jobs.JobStore, "submit", "server.jobstore_submit")
    for method in ("run", "submit", "wait"):
        spans.patch(Client, method, f"client.{method}")
    spans.patch(CampaignSpec, "from_dict", "campaign.spec.plan")
    spans.patch(CampaignLedger, "append_chunk", "campaign.ledger.append_chunk")
    spans.patch(CampaignState, "load", "campaign.ledger.state_load")
    build_report = spans.wrap("campaign.report.build_report", campaign_report.build_report)
    for module in (campaign_report, campaign_runner, campaign):
        spans.replace(module, "build_report", build_report)
    run_campaign = spans.wrap("campaign.runner.run_campaign", campaign_runner.run_campaign)
    for module in (campaign_runner, campaign):
        spans.replace(module, "run_campaign", run_campaign)
