"""The unified, declarative scenario API.

One :class:`Scenario` object captures everything that defines a run -
protocol, engine kind, workload shape, adversary spec, delay model,
seed, limits - and is fully serializable, so the same
scenario is addressable in memory, as JSON, and from the CLI::

    from repro.api import Scenario

    scenario = Scenario(
        protocol="B", n=256, t=16,
        adversary="random:8,max_action_index=25", seed=7,
    )
    result = scenario.run()                      # RunResult, config echoed
    text = scenario.to_json()                    # share / store / version it
    again = Scenario.from_json(text).run()       # byte-identical accounting

Asynchronous runs are the same object with ``engine="async"`` (or just
an async-registered protocol such as ``A-async``), plus the async-only
knobs: a ``delay`` model spec, scheduled ``crash_times``, and the
failure-detector window::

    Scenario(protocol="A-async", n=200, t=25,
             delay="uniform:0.5,6.0", crash_times={0: 5.0}, seed=2).run()

:class:`Sweep` fans one scenario out over a protocols x adversaries x
n x t x seeds grid (the package's one grid enumerator; campaigns plan
their chunks over it) and aggregates the executions in a
:class:`ResultSet` with the paper's worst-case reducer (its theorems are
worst-case statements) plus a mean reducer, markdown tables and JSON
export.  ``Sweep.run(workers=4)`` executes the grid on a multiprocessing
pool - scenarios are plain data, so grid points ship to workers as dicts
and the metrics are bit-identical to a serial run (see
:func:`run_scenarios`).

``repro.run_protocol`` remains the stable synchronous shorthand; this
module is a superset of it, not a replacement.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import codec
from repro.core import registry
from repro.errors import ConfigurationError
from repro.sim.adversary import (
    Adversary,
    AdversarySpec,
    adversary_from_spec,
    normalize_adversary_spec,
)
from repro.sim.async_engine import (
    AsyncEngine,
    DelaySpec,
    delay_model_from_spec,
    normalize_delay_spec,
)
from repro.sim.congestion import (
    CongestionSpec,
    congestion_from_spec,
    normalize_congestion_spec,
)
from repro.sim.failure_detector import FailureDetector
from repro.sim.specs import normalize_schedule_spec
from repro.sim.metrics import RunResult
from repro.work.tracker import WorkTracker

ENGINE_CHOICES = ("auto", "sync", "async")

#: Values the ``fastpath`` field accepts.  The sync engine has one
#: delivery store, so every value runs the same; the field stays so
#: stored documents that carry it keep loading.
FASTPATH_CHOICES = ("auto", "on", "off")

DEFAULT_MAX_STEPS = 5_000_000
DEFAULT_MAX_EVENTS = 2_000_000

_FD_FIELDS = ("min_delay", "max_delay")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: The plain :class:`Scenario` fields by the type their values must have
#: (a bool is not an integer here), and those that may also be ``None``.
#: ``engine`` and ``fastpath`` are checked against their choices instead.
_FIELD_TYPES = (
    (int, "an integer", ("n", "t", "seed", "max_steps", "max_rounds", "max_events")),
    (str, "a string", ("protocol", "name")),
    (bool, "a boolean", ("allow_total_failure",)),
    (dict, "a dict", ("options",)),
)
_OPTIONAL_FIELDS = frozenset({"max_rounds", "name"})


def _check_field_types(scenario: "Scenario") -> None:
    for kind, expected, names in _FIELD_TYPES:
        for name in names:
            value = getattr(scenario, name)
            if value is None and name in _OPTIONAL_FIELDS:
                continue
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ConfigurationError(
                    f"scenario field {name!r} must be {expected}, got {value!r}"
                )


def _canonical_crash_times(crash_times: Any, t: int) -> Dict[int, float]:
    """``crash_times`` as ``{pid: time}`` ints to floats, sorted by pid,
    every pid one of the ``t`` process ids."""
    if not isinstance(crash_times, dict):
        raise ConfigurationError(
            f"'crash_times' must be a {{pid: time}} mapping, got {crash_times!r}"
        )
    converted: Dict[int, float] = {}
    for pid, when in crash_times.items():
        # JSON keys are strings; a float or bool pid is a mistake, not a
        # process id to truncate.
        try:
            process = int(pid) if isinstance(pid, str) else operator.index(pid)
        except (TypeError, ValueError):
            process = None
        if process is None or isinstance(pid, bool):
            raise ConfigurationError(
                f"crash_times pid {pid!r} must be an integer process id"
            )
        if not 0 <= process < t:
            raise ConfigurationError(
                f"crash_times pid {pid!r} is not a process id; with t={t} "
                f"the ids are 0..{t - 1}"
            )
        if process in converted:
            raise ConfigurationError(f"crash_times names pid {process} twice")
        if not _is_number(when):
            raise ConfigurationError(
                f"crash_times entry for pid {pid!r} must be a numeric "
                f"time, got {when!r}"
            )
        converted[process] = float(when)
    return dict(sorted(converted.items()))


#: Keywords of :func:`registry.run_protocol` itself: a builder option so
#: named would bind to the run setting, not reach the builder.
_RUN_KEYWORDS = frozenset(inspect.signature(registry.run_protocol).parameters)


@dataclass
class Scenario:
    """Declarative description of one simulation run.

    Attributes:
        protocol: registered protocol name (case-insensitive; see
            :func:`repro.core.registry.available_protocols`).
        n: number of work units.
        t: number of processes.
        engine: ``"sync"``, ``"async"``, or ``"auto"`` (resolve from the
            protocol's registry entry).
        seed: RNG seed for the engine, adversary and delay draws.
        adversary: adversary spec (string/dict, see
            :mod:`repro.sim.adversary`) or a live instance (each run
            deep-copies it, so repeated runs and sweep grid points see
            its pristine state; blocks serialization).  Sync engine
            only.
        delay: message delay-model spec (async engine only).
        crash_times: ``{pid: time}`` scheduled crashes (async only; the
            sync engine's crashes come from the adversary).
        failure_detector: ``{"min_delay": ..., "max_delay": ...}``
            notification window of the async oracle detector.
        congestion: per-process per-round send/receive budget spec
            (``"budget:send=4,receive=8"`` or the dict form; see
            :mod:`repro.sim.congestion`).  Both engines enforce it.
        allow_total_failure: tolerate all-crashed executions (sync).
        max_steps / max_rounds: sync engine budgets.
        max_events: async engine budget.
        fastpath: accepted and ignored - ``"auto"`` (the default),
            ``"on"`` or ``"off"``, sync scenarios only.  The sync engine
            has one delivery store, so it selects nothing; stored
            documents carry it, so it is validated and round-trips, but
            is excluded from :meth:`canonical_dict` / :meth:`cache_key`.
        options: keyword arguments of the protocol's builder, and only
            those: ``interval`` for ``naive``, ``revert_threshold`` for
            ``D``, ``schedule``/``cycle_length`` for ``D-dynamic`` and
            ``step_delay`` for ``A-async``.  Every other protocol takes
            none; the protocol name alone selects the run (``C-batched``,
            not ``C`` with an option, is Corollary 3.9).
        name: optional label, carried through serialization and the
            config echo (used by benchmarks and sweep tables).
    """

    protocol: str
    n: int
    t: int
    engine: str = "auto"
    seed: int = 0
    adversary: AdversarySpec = None
    delay: DelaySpec = None
    crash_times: Optional[Dict[int, float]] = None
    failure_detector: Optional[Dict[str, float]] = None
    congestion: CongestionSpec = None
    allow_total_failure: bool = False
    max_steps: int = DEFAULT_MAX_STEPS
    max_rounds: Optional[int] = None
    max_events: int = DEFAULT_MAX_EVENTS
    fastpath: str = "auto"
    options: Dict[str, Any] = field(default_factory=dict)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        # The one place a scenario is checked and made canonical, for the
        # constructor and for documents alike, so to_dict() can read the
        # fields as they are left.  Exact types pass at once (grids build
        # scenarios in bulk); anything else goes to the table, which
        # accepts subclasses and names the first mistyped field and value.
        if not (
            type(self.n) is type(self.t) is type(self.seed) is int
            and type(self.max_steps) is type(self.max_events) is int
            and (self.max_rounds is None or type(self.max_rounds) is int)
            and type(self.protocol) is str
            and (self.name is None or type(self.name) is str)
            and type(self.allow_total_failure) is bool
            and type(self.options) is dict
        ):
            _check_field_types(self)
        if self.engine not in ENGINE_CHOICES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choices: "
                + ", ".join(ENGINE_CHOICES)
            )
        if self.fastpath not in FASTPATH_CHOICES:
            raise ConfigurationError(
                f"unknown fastpath {self.fastpath!r}; choices: "
                + ", ".join(FASTPATH_CHOICES)
            )
        registry.get_entry(self.protocol)  # fail fast with the name listing
        if self.n <= 0 or self.t <= 0:
            raise ConfigurationError(
                f"n and t must be positive, got n={self.n}, t={self.t}"
            )
        # Canonicalise declarative specs eagerly: bad specs fail at
        # construction, and two scenarios spelling one spec differently
        # ("random:2" vs {"kind": "random", "count": 2}) compare equal.
        # Live adversary instances / delay callables pass through (they
        # run fine but block serialization).  None stays None.
        if self.adversary is not None and not isinstance(self.adversary, Adversary):
            self.adversary = normalize_adversary_spec(self.adversary)
        if self.delay is not None and not callable(self.delay):
            self.delay = normalize_delay_spec(self.delay)
        if self.congestion is not None:
            self.congestion = normalize_congestion_spec(self.congestion)
        if "schedule" in self.options:
            # By convention the ``schedule`` builder option is a schedule
            # spec (dynamic-workload protocols); canonicalise it like the
            # other spec families so a bad spec fails at construction and
            # spelling variants compare equal.
            self.options = {
                **self.options,
                "schedule": normalize_schedule_spec(self.options["schedule"]),
            }
        if self.crash_times is not None:
            self.crash_times = _canonical_crash_times(self.crash_times, self.t)
        detector = self.failure_detector
        if detector is not None:
            codec.check_fields(detector, "failure_detector", _FD_FIELDS)
            for key, value in detector.items():
                if not _is_number(value):
                    raise ConfigurationError(
                        f"failure_detector field {key!r} must be a number, got {value!r}"
                    )
            self.failure_detector = {key: float(value) for key, value in detector.items()}

    # ---- engine resolution -------------------------------------------

    @property
    def resolved_engine(self) -> str:
        """The concrete engine kind this scenario runs on."""
        entry = registry.get_entry(self.protocol)
        if self.engine == "auto":
            return entry.engine
        if self.engine != entry.engine:
            raise ConfigurationError(
                f"protocol {self.protocol!r} runs on the {entry.engine!r} "
                f"engine, but the scenario requests {self.engine!r}"
            )
        return self.engine

    def _check_engine_fields(self, engine_kind: str) -> None:
        if engine_kind == "sync":
            for label, value in (
                ("delay", self.delay),
                ("crash_times", self.crash_times),
                ("failure_detector", self.failure_detector),
            ):
                if value is not None:
                    raise ConfigurationError(
                        f"{label!r} only applies to async scenarios, but "
                        f"protocol {self.protocol!r} runs on the sync engine"
                    )
        else:
            if self.adversary is not None:
                raise ConfigurationError(
                    "round-driven adversaries only apply to sync scenarios; "
                    "async runs schedule failures via 'crash_times'"
                )
            if self.max_rounds is not None:
                raise ConfigurationError(
                    "'max_rounds' is a sync-engine budget; the async budget "
                    "is 'max_events'"
                )
            if self.fastpath != "auto":
                raise ConfigurationError(
                    "'fastpath' is a sync-engine knob; protocol "
                    f"{self.protocol!r} runs on the async engine"
                )

    def validate(self) -> None:
        """Check the cross-field constraints that :meth:`run` would hit.

        Construction already validates each field; this additionally
        resolves the engine, rejects engine-mismatched knobs (a sync
        scenario carrying ``delay``, an async one carrying an
        adversary) and builder options the protocol does not take,
        raising :class:`ConfigurationError`.  The run server calls this
        at submission time so a bad document 400s instead of failing
        later inside a worker.
        """
        self._check_engine_fields(self.resolved_engine)
        if self.options:
            registry.check_options(self.protocol, self.options)

    # ---- content addressing ------------------------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        """The scenario's semantic identity as a plain dict.

        Like :meth:`to_dict`, minus everything that does not affect the
        run's metrics: the ``name`` label is dropped and ``engine:
        "auto"`` is resolved to the concrete engine, so two spellings of
        the same run ("auto" vs "sync", named vs anonymous, string spec
        vs dict spec) produce the same canonical dict.  Scenarios
        holding live adversary/delay objects are not serializable and
        raise :class:`ConfigurationError`.
        """
        data = self.to_dict()
        data.pop("name", None)
        # fastpath selects nothing, so it is not part of the scenario's
        # semantic identity: every spelling hits one cache entry.
        data.pop("fastpath", None)
        data["engine"] = self.resolved_engine
        return data

    def cache_key(self) -> str:
        """SHA-256 hex digest of the canonical dict - the scenario's
        content address.

        Every run in this package is a deterministic function of its
        canonical dict, so equal keys mean *bit-identical metrics*:
        result caches keyed by ``cache_key()`` give exact hits (see
        :mod:`repro.cache` and ``docs/serve.md``).

        Stability contract: the key changes **only when the scenario's
        semantics change** - same protocol, workload, specs and seed
        always hash the same, across spelling variants and labels.
        Conversely, a key is only comparable across package versions
        that produce identical metrics for identical canonical dicts;
        rebaseline persisted caches when an engine rewrite changes
        accounting (the suite pins in ``scenarios/`` catch that).
        """
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ---- execution ---------------------------------------------------

    def run(self, *, trace=None, unit_effect=None) -> RunResult:
        """Execute the scenario once and return its
        :class:`~repro.sim.metrics.RunResult` with the scenario's
        serialized form echoed in ``result.config``.

        ``trace`` and ``unit_effect`` are runtime-only observers of the
        sync engine; they are deliberately not part of the serialized
        scenario.
        """
        engine_kind = self.resolved_engine
        self._check_engine_fields(engine_kind)
        if engine_kind == "sync":
            adversary = self.adversary
            if isinstance(adversary, Adversary):
                # Adversaries are stateful (budgets, countdowns); hand the
                # engine a copy so repeated runs of one scenario - and every
                # grid point of a Sweep - start from the pristine state.
                adversary = copy.deepcopy(adversary)
            else:
                adversary = adversary_from_spec(adversary)
            clash = _RUN_KEYWORDS.intersection(self.options)
            if clash:
                raise ConfigurationError(
                    f"protocol {self.protocol!r} rejected builder option(s) "
                    f"{sorted(clash)}: they name run settings (scenario fields)"
                )
            result = registry.run_protocol(
                self.protocol,
                self.n,
                self.t,
                adversary=adversary,
                seed=self.seed,
                allow_total_failure=self.allow_total_failure,
                max_steps=self.max_steps,
                max_rounds=self.max_rounds,
                trace=trace,
                unit_effect=unit_effect,
                congestion=self.congestion,
                **self.options,
            )
        else:
            if trace is not None or unit_effect is not None:
                raise ConfigurationError(
                    "trace/unit_effect are sync-engine observers; the async "
                    "engine does not support them"
                )
            processes = registry.build_processes(
                self.protocol, self.n, self.t, **self.options
            )
            detector = None
            if self.failure_detector is not None:
                detector = FailureDetector(**self.failure_detector)
            engine = AsyncEngine(
                list(processes),
                tracker=WorkTracker(self.n),
                seed=self.seed,
                delay_model=delay_model_from_spec(self.delay),
                failure_detector=detector,
                crash_times=self.crash_times,
                max_events=self.max_events,
                congestion=congestion_from_spec(self.congestion),
            )
            result = engine.run()
        try:
            config = self.to_dict()
        except ConfigurationError:
            config = None  # live adversary/delay objects: run, don't echo
        return dataclasses.replace(result, config=config)

    # ---- serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-compatible form, read off the fields that
        construction made canonical; defaults are omitted so the dict
        reads like the scenario was written by hand.  Nested spec dicts
        are the scenario's own.  A live adversary or delay callable does
        not serialize: :class:`ConfigurationError`."""
        data: Dict[str, Any] = {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "engine": self.engine,
            "seed": self.seed,
        }
        if self.name is not None:
            data["name"] = self.name
        adversary = self.adversary
        if isinstance(adversary, Adversary):
            adversary = normalize_adversary_spec(adversary)  # raises: not serializable
        if adversary is not None:
            data["adversary"] = adversary
        if callable(self.delay):
            normalize_delay_spec(self.delay)  # raises: not serializable
        if self.delay is not None:
            data["delay"] = self.delay
        if self.congestion is not None:
            data["congestion"] = self.congestion
        if self.crash_times:
            # JSON keys, in JSON's order: the echo reads the same after a
            # json.loads/json.dumps round trip.
            data["crash_times"] = dict(
                sorted((str(pid), when) for pid, when in self.crash_times.items())
            )
        if self.failure_detector is not None:
            data["failure_detector"] = dict(self.failure_detector)
        if self.allow_total_failure:
            data["allow_total_failure"] = True
        if self.max_steps != DEFAULT_MAX_STEPS:
            data["max_steps"] = self.max_steps
        if self.max_rounds is not None:
            data["max_rounds"] = self.max_rounds
        if self.max_events != DEFAULT_MAX_EVENTS:
            data["max_events"] = self.max_events
        if self.fastpath != "auto":
            data["fastpath"] = self.fastpath
        if self.options:
            data["options"] = dict(self.options)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """The scenario a document dict describes; construction checks
        every value, so this only checks the field names."""
        return cls(**codec.check_fields(data, "scenario", _SCENARIO_FIELDS, _SCENARIO_REQUIRED))

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(codec.parse(text, "scenario document"))

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_file(cls, path) -> "Scenario":
        return cls.from_dict(codec.read(path, "scenario file"))

    # ---- derived scenarios -------------------------------------------

    def replace(self, **changes) -> "Scenario":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)


#: The fields a scenario document may hold, and those it must.
_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(Scenario))
_SCENARIO_REQUIRED = ("protocol", "n", "t")


# =====================================================================
# Parallel execution
# =====================================================================


def _run_scenario_payload(payload: Dict[str, Any]) -> RunResult:
    """Worker-side entry point: rebuild the scenario from its dict form
    and run it.  Top-level so it pickles under every start method."""
    return Scenario.from_dict(payload).run()


def _pool_context():
    # ``fork`` keeps worker start-up cheap and inherits the registry
    # as-is, but is only safe on Linux (macOS offers fork yet CPython
    # made spawn its default there because fork-without-exec breaks
    # system frameworks); everywhere else use the platform default.
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _execute_scenarios(
    scenarios: List[Scenario], *, workers: Optional[int]
) -> List[RunResult]:
    """The raw (cache-blind) executor behind :func:`run_scenarios`."""
    if workers is None or workers <= 1 or len(scenarios) <= 1:
        return [scenario.run() for scenario in scenarios]
    try:
        payloads = [scenario.to_dict() for scenario in scenarios]
    except ConfigurationError as exc:
        raise ConfigurationError(
            "parallel execution ships scenarios to workers as dicts, but a "
            f"scenario does not serialize: {exc}"
        ) from exc
    with _pool_context().Pool(min(workers, len(scenarios))) as pool:
        return pool.map(_run_scenario_payload, payloads, chunksize=1)


def run_scenarios(
    scenarios: Iterable[Scenario],
    *,
    workers: Optional[int] = None,
    cache=None,
) -> List[RunResult]:
    """Run ``scenarios`` in order and return their results in order.

    ``workers=None`` (or ``0``/``1``) runs serially in-process - the
    deterministic fallback.  ``workers > 1`` ships each scenario to a
    ``multiprocessing`` pool *as its dict form*; every run is a pure
    function of that dict and its seed, so the returned metrics are
    bit-identical to the serial path (pinned by
    ``tests/test_suites.py``).  Scenarios holding live adversary
    instances cannot be shipped and raise :class:`ConfigurationError` -
    use declarative specs, or run serially.

    ``cache`` (a :class:`repro.cache.ResultCache`) memoizes completed
    runs by :meth:`Scenario.cache_key`: cached scenarios return without
    executing, duplicates *within* the batch execute once, and every
    miss is stored for the next call.  Determinism makes hits exact, so
    results are bit-identical with or without a cache - including the
    ``config`` echo, which always reflects the requesting scenario.
    Scenarios holding live (unserializable) adversaries bypass the
    cache and simply run.
    """
    scenarios = list(scenarios)
    if cache is None:
        return _execute_scenarios(scenarios, workers=workers)
    results: List[Optional[RunResult]] = [None] * len(scenarios)
    misses: List[int] = []
    first_for_key: Dict[str, int] = {}
    twin_of: Dict[int, int] = {}
    keys: List[Optional[str]] = []
    for index, scenario in enumerate(scenarios):
        try:
            key = scenario.cache_key()
        except ConfigurationError:
            key = None  # live adversary/delay objects: run, don't cache
        keys.append(key)
        if key is None:
            misses.append(index)
            continue
        if key in first_for_key:
            twin_of[index] = first_for_key[key]
            continue
        cached = cache.get(key)
        if cached is not None:
            results[index] = dataclasses.replace(
                cached, config=scenario.to_dict()
            )
            continue
        first_for_key[key] = index
        misses.append(index)
    if misses:
        executed = _execute_scenarios(
            [scenarios[index] for index in misses], workers=workers
        )
        for index, result in zip(misses, executed):
            results[index] = result
            if keys[index] is not None:
                cache.put(keys[index], result)
    for index, twin in twin_of.items():
        results[index] = dataclasses.replace(
            results[twin], config=scenarios[index].to_dict()
        )
    return results


# =====================================================================
# Sweeps and aggregation
# =====================================================================


class ResultSet:
    """An ordered collection of ``(scenario, result)`` pairs with the
    paper's aggregation conventions baked in.

    The theorems are worst-case statements over all crash patterns, so
    :meth:`worst` (per-measure maxima) is the headline reducer;
    :meth:`mean` is there for the expected-cost view.
    """

    def __init__(self, entries: Sequence[Tuple[Scenario, RunResult]]):
        self.entries: List[Tuple[Scenario, RunResult]] = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Tuple[Scenario, RunResult]]:
        return iter(self.entries)

    @property
    def results(self) -> List[RunResult]:
        return [result for _, result in self.entries]

    @property
    def all_completed(self) -> bool:
        return all(result.completed for result in self.results)

    # ---- combination -------------------------------------------------

    @classmethod
    def merge(cls, *result_sets: "ResultSet") -> "ResultSet":
        """One :class:`ResultSet` holding every ``(scenario, result)``
        pair of ``result_sets``, in argument order.

        This is how client-side callers recombine results fetched in
        pieces (several :meth:`repro.client.Client` jobs, shards of a
        campaign) into the same aggregate object an in-process
        :meth:`Sweep.run` returns - reducers, tables and JSON export all
        work on the merged set.
        """
        entries: List[Tuple[Scenario, RunResult]] = []
        for result_set in result_sets:
            if not isinstance(result_set, ResultSet):
                raise ConfigurationError(
                    "ResultSet.merge combines ResultSet objects, got "
                    f"{type(result_set).__name__}"
                )
            entries.extend(result_set.entries)
        return cls(entries)

    # ---- reducers ----------------------------------------------------

    def _reduced(self, reducer) -> Dict[str, float]:
        if not self.entries:
            raise ConfigurationError("cannot reduce an empty ResultSet")
        rows = [result.metrics.measures() for result in self.results]
        return {key: reducer([row[key] for row in rows]) for key in rows[0]}

    def worst(self) -> Dict[str, float]:
        """Per-measure maxima over every execution (the paper's view)."""
        return self._reduced(max)

    def mean(self) -> Dict[str, float]:
        return self._reduced(lambda values: sum(values) / len(values))

    def by_protocol(self) -> Dict[str, "ResultSet"]:
        grouped: Dict[str, ResultSet] = {}
        for scenario, result in self.entries:
            grouped.setdefault(
                scenario.protocol.lower(), ResultSet([])
            ).entries.append((scenario, result))
        return grouped

    # ---- export ------------------------------------------------------

    def table(self) -> str:
        """Markdown table, one row per protocol, each measure reduced by
        :meth:`worst` (the paper's view)."""
        from repro.analysis.tables import render_table

        rows = []
        for protocol, subset in sorted(self.by_protocol().items()):
            reduced = subset.worst()
            rows.append(
                [
                    protocol,
                    len(subset),
                    reduced["work"],
                    reduced["messages"],
                    reduced["effort"],
                    float(reduced["rounds"]),
                    "yes" if subset.all_completed else "NO",
                ]
            )
        return render_table(
            ["protocol", "runs", "work", "messages", "effort", "rounds", "completed"],
            rows,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "runs": [result.to_dict() for result in self.results],
            "worst": self.worst(),
            "mean": self.mean(),
            "all_completed": self.all_completed,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True) + "\n"


def is_int(value: Any) -> bool:
    """True for an integer that is not a bool (JSON ``true`` is an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


#: The grid axes in nesting order (seeds vary fastest).  Per axis: the
#: :class:`Scenario` field it sets, the check each entry of a document's
#: list must pass, and how an error describes a valid entry.
_AXES = {
    "protocols": ("protocol", lambda value: isinstance(value, str), "protocol names"),
    "adversaries": ("adversary", lambda value: True, ""),
    "n": ("n", lambda value: is_int(value) and value >= 1, "positive integers"),
    "t": ("t", lambda value: is_int(value) and value >= 1, "positive integers"),
    "seeds": ("seed", is_int, "integers"),
}
GRID_AXES = tuple(_AXES)


def _seed_range(raw: Dict[str, Any], where: str) -> List[int]:
    """The ``{"start", "count"}`` range form of a seeds axis, as a list."""
    unknown = set(raw) - {"start", "count"}
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) {sorted(unknown)} in the range form of "
            f"{where}; accepted: start, count"
        )
    start = raw.get("start", 0)
    count = raw.get("count")
    for label, value in (("start", start), ("count", count)):
        if not is_int(value):
            raise ConfigurationError(
                f"'{label}' of {where} must be an integer, got {value!r}"
            )
    if count < 1:
        raise ConfigurationError(
            f"'count' of {where} must be at least 1, got {count!r}"
        )
    return list(range(start, start + count))


def parse_axes(data: Dict[str, Any], where: str) -> Dict[str, Optional[List[Any]]]:
    """Read the grid axes of a document, keyed by :data:`GRID_AXES`.

    An absent axis is ``None`` (keep the base scenario's value).  A
    present one must be a non-empty list whose entries fit the axis;
    ``seeds`` may also be the range form ``{"start": s, "count": c}``
    (a :math:`10^5`-seed grid should not need a :math:`10^5`-element
    list).  Keys other than the axes are rejected.  Errors
    are :class:`ConfigurationError` naming ``where`` and the axis.  The
    one axis parser: :meth:`Sweep.from_dict` and the campaign loader
    both read their axes here.
    """
    unknown = set(data) - set(GRID_AXES)
    if unknown:
        raise ConfigurationError(
            f"unknown axis(es) {sorted(unknown)} in {where}; accepted: "
            + ", ".join(GRID_AXES)
        )
    axes: Dict[str, Optional[List[Any]]] = {}
    for name, (_, entry, expected) in _AXES.items():
        values = data.get(name)
        label = f"{where} '{name}'"
        if name == "seeds" and isinstance(values, dict):
            values = _seed_range(values, label)
        elif values is not None:
            if not isinstance(values, list) or not values:
                raise ConfigurationError(
                    f"{label} must be a non-empty list, got {values!r}"
                )
            for value in values:
                if not entry(value):
                    raise ConfigurationError(
                        f"{label} entries must be {expected}, got {value!r}"
                    )
        axes[name] = values
    return axes


@dataclass
class Sweep:
    """Fan a base scenario out over protocols x adversaries x n x t x seeds.

    Each axis lists values of one :class:`Scenario` field (``protocol``,
    ``adversary``, ``n``, ``t``, ``seed``); ``None`` keeps the base
    scenario's value, and every other field of the base - its ``name``
    included - carries to every grid point.  A given axis must be
    non-empty.  Adversary specs are normalized at construction; live
    instances pass through.

    **The order is a contract.**  The grid enumerates in
    :data:`GRID_AXES` order with seeds fastest; :meth:`scenario_at`
    addresses any point of it, and a campaign's chunks are slices of
    it.  ``run()`` executes the full grid and returns a
    :class:`ResultSet`.
    """

    base: Scenario
    seeds: Optional[Sequence[int]] = None
    adversaries: Optional[Sequence[AdversarySpec]] = None
    protocols: Optional[Sequence[str]] = None
    n: Optional[Sequence[int]] = None
    t: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        for name in GRID_AXES:
            values = getattr(self, name)
            if values is None:
                continue
            values = list(values)
            if not values:
                raise ConfigurationError(f"sweep '{name}' must be a non-empty list")
            setattr(self, name, values)
        if self.adversaries is not None:
            self.adversaries = [
                spec if isinstance(spec, Adversary) else normalize_adversary_spec(spec)
                for spec in self.adversaries
            ]

    def axes(self) -> Dict[str, List[Any]]:
        """Every axis in :data:`GRID_AXES` order; an absent one is the
        base scenario's value alone.  Given axes are the sweep's own
        lists, not copies."""
        return {
            name: (
                getattr(self, name)
                if getattr(self, name) is not None
                else [getattr(self.base, field_name)]
            )
            for name, (field_name, _, _) in _AXES.items()
        }

    def __len__(self) -> int:
        return math.prod(len(values) for values in self.axes().values())

    def scenario_at(self, offset: int) -> Scenario:
        """Grid point ``offset`` of the enumeration (seeds fastest).

        Mixed-radix decoding addresses any point without enumerating
        the prefix: resuming chunk 900 of a 1000-chunk campaign does not
        rebuild 90k scenarios.
        """
        size = len(self)
        if not 0 <= offset < size:
            raise ConfigurationError(
                f"grid offset {offset} out of range; this grid has {size} runs"
            )
        axes = self.axes()
        point: Dict[str, Any] = {}
        for name in reversed(GRID_AXES):
            offset, index = divmod(offset, len(axes[name]))
            point[_AXES[name][0]] = axes[name][index]
        return self.base.replace(**point)

    def scenarios(self) -> Iterator[Scenario]:
        """The full grid in enumeration order."""
        for offset in range(len(self)):
            yield self.scenario_at(offset)

    def run(self, *, workers: Optional[int] = None) -> ResultSet:
        """Execute the full grid and aggregate it.

        ``workers > 1`` fans grid points out to a multiprocessing pool
        (the grid is embarrassingly parallel); results come back in grid
        order with metrics bit-identical to the serial default.  See
        :func:`run_scenarios`.
        """
        scenarios = list(self.scenarios())
        return ResultSet(
            list(zip(scenarios, run_scenarios(scenarios, workers=workers)))
        )

    # ---- serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"base": self.base.to_dict()}
        # Field order, not grid order: ``Suite.save`` keeps key order.
        for name in ("seeds", "adversaries", "protocols", "n", "t"):
            values = getattr(self, name)
            if values is None:
                continue
            if name == "adversaries":
                # Normalized at construction; a live instance raises.
                values = [
                    normalize_adversary_spec(spec) if isinstance(spec, Adversary) else spec
                    for spec in values
                ]
            data[name] = list(values)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Sweep":
        if not isinstance(data, dict) or "base" not in data:
            raise ConfigurationError("a sweep needs a 'base' scenario dict")
        axes = {key: value for key, value in data.items() if key != "base"}
        return cls(base=Scenario.from_dict(data["base"]), **parse_axes(axes, "sweep"))

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        return cls.from_dict(codec.parse(text, "sweep document"))


__all__ = [
    "ENGINE_CHOICES",
    "GRID_AXES",
    "ResultSet",
    "Scenario",
    "Sweep",
    "parse_axes",
    "run_scenarios",
]
