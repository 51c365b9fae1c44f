"""Versioned scenario suites: regression-pinned batteries of runs.

A *suite* is a versioned file (JSON, or TOML on Python 3.11+) holding a
named list of :class:`~repro.api.Scenario` / :class:`~repro.api.Sweep`
specs plus *regression pins* - the expected worst-case metrics per
entry.  Every run in this package is a deterministic function of its
serialized scenario, so pins are **exact**: ``suite check`` fails on any
drift, which turns the shipped ``scenarios/`` directory into a
regression-pinned catalog of every workload the repo covers (the same
role the paper's tables play for its theorems).

File format (see ``docs/suites.md`` for the full reference)::

    {
      "suite": "paper-battery",
      "version": 1,
      "description": "...",
      "entries": [
        {"name": "a-random", "scenario": {...Scenario dict...},
         "pins": {"work": 140, "messages": 44, "effort": 184}},
        {"name": "a-grid", "sweep": {...Sweep dict...},
         "workers": 4,
         "pins": {"effort": 553}}
      ]
    }

An entry's optional ``workers`` hint overrides the suite-level pool
size for that entry (the loader validates it, the executor honors it);
metrics stay bit-identical at any worker count, so hints only trade
wall clock.  Every entry report carries a wall-clock ``seconds``
column - informational, never pinned or diffed for regressions.

Programmatic use::

    from repro.suites import load_suite

    report = load_suite("scenarios/paper_battery.json").run(workers=4)
    assert report.passed, report.failures()

CLI::

    python -m repro suite list
    python -m repro suite run scenarios/paper_battery.json --workers 4
    python -m repro suite check scenarios/*.json --out report.json

Pins compare against the entry's **worst-case** reduction (per-measure
maxima over the entry's runs - one run for a scenario entry, the whole
grid for a sweep entry), matching the paper's worst-case reading of its
bounds.  Parallel execution (``workers > 1``) pools *within* each
entry: every entry runs as its own :func:`repro.api.run_scenarios`
batch (which is what makes per-entry ``workers`` hints and the
``seconds`` column well defined), so the suite-level worker count
speeds up multi-run (sweep) entries while single-scenario entries
always run in-process.  Metrics are bit-identical to serial execution
at any worker count.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.api import ResultSet, Scenario, Sweep, run_scenarios
from repro.errors import ConfigurationError
from repro.sim.metrics import MEASURES, RunResult

#: The suite file format version this loader understands.
SUITE_FORMAT_VERSION = 1

#: Measures a pin may reference: the keys of the worst-case reduction
#: (:meth:`repro.sim.metrics.Metrics.measures`).
PIN_MEASURES = MEASURES

_SUITE_FIELDS = {"suite", "version", "description", "entries"}
_ENTRY_FIELDS = {"name", "scenario", "sweep", "pins", "workers"}


# =====================================================================
# Suite model + loader
# =====================================================================


def check_pins(pins: Any, where: str) -> Dict[str, float]:
    """Validate a pins table - known measure names mapped to numbers -
    and return a copy.  Suite entries and campaigns both pin this way;
    errors are :class:`ConfigurationError` naming ``where``."""
    if not isinstance(pins, dict):
        raise ConfigurationError(
            f"'pins' of {where} must be a dict, got {type(pins).__name__}"
        )
    unknown = set(pins) - set(PIN_MEASURES)
    if unknown:
        raise ConfigurationError(
            f"unknown pin measure(s) {sorted(unknown)} in {where}; "
            f"accepted: {', '.join(PIN_MEASURES)}"
        )
    for measure, value in pins.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"pin {measure!r} of {where} must be a number, got {value!r}"
            )
    return dict(pins)


@dataclass(frozen=True)
class SuiteEntry:
    """One named workload of a suite: a scenario or a sweep, plus pins.

    ``workers`` is an optional per-entry pool-size hint: when set it
    overrides the suite-level ``workers`` argument for this entry's
    runs (metrics are bit-identical either way).
    """

    name: str
    scenario: Optional[Scenario] = None
    sweep: Optional[Sweep] = None
    pins: Dict[str, float] = field(default_factory=dict)
    workers: Optional[int] = None

    @property
    def kind(self) -> str:
        return "scenario" if self.scenario is not None else "sweep"

    def scenarios(self) -> List[Scenario]:
        """The concrete runs this entry expands to, in deterministic order."""
        if self.scenario is not None:
            return [self.scenario]
        return list(self.sweep.scenarios())

    @classmethod
    def from_dict(cls, data: Any, *, where: str) -> "SuiteEntry":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{where} must be a dict, got {type(data).__name__}"
            )
        unknown = set(data) - _ENTRY_FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown field(s) {sorted(unknown)} in {where}; accepted: "
                + ", ".join(sorted(_ENTRY_FIELDS))
            )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"{where} needs a non-empty 'name' string")
        has_scenario = "scenario" in data
        has_sweep = "sweep" in data
        if has_scenario == has_sweep:
            raise ConfigurationError(
                f"{where} ({name!r}) must hold exactly one of 'scenario' or "
                "'sweep'"
            )
        pins = check_pins(data.get("pins", {}), f"{where} ({name!r})")
        workers = data.get("workers")
        if workers is not None:
            if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
                raise ConfigurationError(
                    f"'workers' of {where} ({name!r}) must be a positive "
                    f"integer, got {workers!r}"
                )
        try:
            if has_scenario:
                return cls(
                    name=name,
                    scenario=Scenario.from_dict(data["scenario"]),
                    pins=pins,
                    workers=workers,
                )
            return cls(
                name=name,
                sweep=Sweep.from_dict(data["sweep"]),
                pins=pins,
                workers=workers,
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where} ({name!r}): {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
        else:
            data["sweep"] = self.sweep.to_dict()
        if self.workers is not None:
            data["workers"] = self.workers
        if self.pins:
            data["pins"] = {k: self.pins[k] for k in sorted(self.pins)}
        return data


@dataclass
class Suite:
    """A loaded, validated suite file."""

    name: str
    version: int
    entries: List[SuiteEntry]
    description: str = ""
    path: Optional[Path] = None

    @classmethod
    def from_dict(cls, data: Any, *, path: Optional[Path] = None) -> "Suite":
        where = f"suite file {path}" if path is not None else "suite dict"
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{where} must hold a dict, got {type(data).__name__}"
            )
        unknown = set(data) - _SUITE_FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown field(s) {sorted(unknown)} in {where}; accepted: "
                + ", ".join(sorted(_SUITE_FIELDS))
            )
        missing = {"suite", "version", "entries"} - set(data)
        if missing:
            raise ConfigurationError(
                f"{where} requires field(s) {sorted(missing)}"
            )
        name = data["suite"]
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"'suite' of {where} must be a non-empty name")
        version = data["version"]
        if not isinstance(version, int) or isinstance(version, bool):
            raise ConfigurationError(
                f"'version' of {where} must be an integer, got {version!r}"
            )
        if version != SUITE_FORMAT_VERSION:
            raise ConfigurationError(
                f"{where} uses format version {version}, but this loader "
                f"understands version {SUITE_FORMAT_VERSION}"
            )
        raw_entries = data["entries"]
        if not isinstance(raw_entries, list) or not raw_entries:
            raise ConfigurationError(
                f"'entries' of {where} must be a non-empty list"
            )
        entries = [
            SuiteEntry.from_dict(item, where=f"entry {index} of {where}")
            for index, item in enumerate(raw_entries)
        ]
        seen: Dict[str, int] = {}
        for index, entry in enumerate(entries):
            if entry.name in seen:
                raise ConfigurationError(
                    f"duplicate entry name {entry.name!r} in {where} "
                    f"(entries {seen[entry.name]} and {index})"
                )
            seen[entry.name] = index
        return cls(
            name=name,
            version=version,
            entries=entries,
            description=str(data.get("description", "")),
            path=path,
        )

    @classmethod
    def from_file(cls, path) -> "Suite":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read suite file {path}: {exc}") from exc
        suffix = path.suffix.lower()
        if suffix == ".json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"suite file {path} is not valid JSON: {exc}"
                ) from exc
        elif suffix == ".toml":
            try:
                import tomllib
            except ImportError:  # Python < 3.11
                raise ConfigurationError(
                    f"suite file {path} is TOML, which needs Python 3.11+ "
                    "(tomllib); use the JSON form on older interpreters"
                )
            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise ConfigurationError(
                    f"suite file {path} is not valid TOML: {exc}"
                ) from exc
        else:
            raise ConfigurationError(
                f"suite file {path} must end in .json or .toml"
            )
        return cls.from_dict(data, path=path)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "suite": self.name,
            "version": self.version,
        }
        if self.description:
            data["description"] = self.description
        data["entries"] = [entry.to_dict() for entry in self.entries]
        return data

    def save(self, path=None) -> Path:
        """Write the suite back as canonical JSON (pins included)."""
        path = Path(path) if path is not None else self.path
        if path is None:
            raise ConfigurationError("this suite has no path; pass one to save()")
        if path.suffix.lower() != ".json":
            raise ConfigurationError(
                f"suites are written back as JSON; cannot save to {path}"
            )
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    # ---- execution ---------------------------------------------------

    def run(self, *, workers: Optional[int] = None, cache=None) -> "SuiteReport":
        """Execute every entry and compare observations against pins.

        Entries execute in order, each through its own
        :func:`repro.api.run_scenarios` call - which is what makes the
        per-entry ``workers`` hint (overriding the suite-level value)
        and the per-entry wall-clock ``seconds`` column well defined.
        Metrics are bit-identical at any worker count; only wall clock
        varies.

        ``cache`` (a :class:`repro.cache.ResultCache`) memoizes runs by
        :meth:`~repro.api.Scenario.cache_key` across entries and across
        repeated suite runs; determinism makes hits exact, so reports
        and pin verdicts are bit-identical with or without it.
        """
        reports = []
        for entry in self.entries:
            scenarios = entry.scenarios()
            entry_workers = entry.workers if entry.workers is not None else workers
            start = time.perf_counter()
            results = run_scenarios(scenarios, workers=entry_workers, cache=cache)
            seconds = time.perf_counter() - start
            reports.append(_report_entry(entry, scenarios, results, seconds))
        return SuiteReport(
            suite=self.name,
            version=self.version,
            entries=reports,
            workers=workers or 1,
        )


    def with_pins_from(self, report: "SuiteReport") -> "Suite":
        """A copy whose entries pin the report's observed worst-case rows.

        An entry with an explicit pin selection keeps it (only those
        measures are refreshed); an unpinned entry gains the full
        :data:`PIN_MEASURES` set.  Used by ``suite check --update-pins``
        to (re)baseline a suite."""
        observed = {entry.name: entry.observed for entry in report.entries}
        missing = [e.name for e in self.entries if e.name not in observed]
        if missing:
            raise ConfigurationError(
                f"report has no observation for entr{'y' if len(missing) == 1 else 'ies'} "
                f"{missing}; it was produced from a different suite"
            )
        entries = [
            dataclasses.replace(
                entry,
                pins={
                    measure: observed[entry.name][measure]
                    for measure in (sorted(entry.pins) if entry.pins else PIN_MEASURES)
                },
            )
            for entry in self.entries
        ]
        return dataclasses.replace(self, entries=entries)


def load_suite(path) -> Suite:
    """Load and validate one suite file (JSON or TOML)."""
    return Suite.from_file(path)


def discover_suites(directory="scenarios") -> List[Path]:
    """Suite files shipped in ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        path
        for path in directory.iterdir()
        if path.suffix.lower() in (".json", ".toml")
    )


# =====================================================================
# Reports
# =====================================================================


def _report_entry(
    entry: SuiteEntry,
    scenarios: Sequence[Scenario],
    results: Sequence[RunResult],
    seconds: float = 0.0,
) -> "EntryReport":
    result_set = ResultSet(list(zip(scenarios, results)))
    return EntryReport(
        name=entry.name,
        kind=entry.kind,
        runs=len(result_set),
        observed=result_set.worst(),
        pins=dict(entry.pins),
        all_completed=result_set.all_completed,
        seconds=seconds,
    )


@dataclass(frozen=True)
class EntryReport:
    """Observed worst-case metrics of one entry, diffed against its pins.

    ``seconds`` is the entry's wall clock - informational only: it is
    never pinned, and ``suite diff`` excludes it from regression
    verdicts (timings are machine noise, metrics are exact).
    """

    name: str
    kind: str
    runs: int
    observed: Dict[str, float]
    pins: Dict[str, float]
    all_completed: bool
    seconds: float = 0.0

    def failures(self) -> List[str]:
        messages = []
        if not self.all_completed:
            messages.append("not every run completed its work")
        for measure in sorted(self.pins):
            pinned = self.pins[measure]
            got = self.observed[measure]
            if got != pinned:
                messages.append(
                    f"{measure}: observed {got!r} != pinned {pinned!r}"
                )
        return messages

    @property
    def passed(self) -> bool:
        return not self.failures()

    @property
    def pinned(self) -> bool:
        return bool(self.pins)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "runs": self.runs,
            "observed": dict(self.observed),
            "pins": dict(self.pins),
            "all_completed": self.all_completed,
            "seconds": round(self.seconds, 6),
            "failures": self.failures(),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run: per-entry observations + pin verdicts."""

    suite: str
    version: int
    entries: List[EntryReport]
    workers: int = 1

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    @property
    def total_runs(self) -> int:
        return sum(entry.runs for entry in self.entries)

    def failures(self) -> List[str]:
        return [
            f"{self.suite}/{entry.name}: {message}"
            for entry in self.entries
            for message in entry.failures()
        ]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "version": self.version,
            "workers": self.workers,
            "total_runs": self.total_runs,
            "passed": self.passed,
            "entries": [entry.as_dict() for entry in self.entries],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True) + "\n"

    def repinned(self, suite: Suite) -> "SuiteReport":
        """The same observations diffed against ``suite``'s (possibly
        rewritten) pins — what ``--update-pins`` emits so its report
        reflects the pins that now exist, not the ones it replaced."""
        by_name = {entry.name: entry for entry in suite.entries}
        return dataclasses.replace(
            self,
            entries=[
                dataclasses.replace(entry, pins=dict(by_name[entry.name].pins))
                if entry.name in by_name
                else entry
                for entry in self.entries
            ],
        )

    def table(self) -> str:
        from repro.analysis.tables import render_table

        rows = []
        for entry in self.entries:
            observed = entry.observed
            rows.append(
                [
                    entry.name,
                    entry.kind,
                    entry.runs,
                    observed["work"],
                    observed["messages"],
                    observed["effort"],
                    float(observed["rounds"]),
                    f"{entry.seconds:.3f}",
                    "ok" if entry.passed else "FAIL",
                    "-" if not entry.pinned else "exact",
                ]
            )
        return render_table(
            [
                "entry",
                "kind",
                "runs",
                "work",
                "messages",
                "effort",
                "rounds",
                "seconds",
                "status",
                "pins",
            ],
            rows,
            title=f"suite {self.suite!r} (v{self.version}, {self.total_runs} runs)",
        )


# =====================================================================
# Report diffing (the ``suite diff`` verb)
# =====================================================================
#
# ``suite run --out report.json`` / ``suite check --out`` write a list
# of :meth:`SuiteReport.as_dict` payloads.  ``suite diff OLD NEW``
# compares two such artifacts - typically produced at two commits - and
# reports per-entry metric deltas.  A *regression* is:
#
# * a pinnable measure (:data:`PIN_MEASURES`) that increased,
# * an entry (or whole suite) present in OLD but missing from NEW,
# * an entry whose runs completed in OLD but not in NEW.
#
# Wall-clock ``seconds`` deltas are reported but never count as
# regressions (timings are machine noise; metrics are exact).


@dataclass(frozen=True)
class MeasureDelta:
    """One measure of one entry, compared across two report artifacts."""

    suite: str
    entry: str
    measure: str
    old: float
    new: float

    @property
    def delta(self) -> float:
        return self.new - self.old

    @property
    def regressed(self) -> bool:
        # Every pinnable measure is a cost: more work, more messages,
        # more rounds, more redundancy is always worse.
        return self.new > self.old

    def describe(self) -> str:
        pct = (
            f", {self.delta / self.old:+.1%}" if self.old else ""
        )
        return (
            f"{self.suite}/{self.entry}: {self.measure} "
            f"{self.old!r} -> {self.new!r} ({self.delta:+g}{pct})"
        )


@dataclass(frozen=True)
class SuiteDiff:
    """Outcome of diffing two suite-report artifacts."""

    deltas: List[MeasureDelta]       # changed measures only
    seconds: List[MeasureDelta]      # wall-clock deltas (informational)
    structural: List[str]            # missing suites/entries, completion flips
    informational: List[str]         # entries/suites only present in NEW

    def regressions(self) -> List[str]:
        return [d.describe() for d in self.deltas if d.regressed] + list(
            self.structural
        )

    @property
    def passed(self) -> bool:
        return not self.regressions()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "regressions": self.regressions(),
            "deltas": [
                {
                    "suite": d.suite,
                    "entry": d.entry,
                    "measure": d.measure,
                    "old": d.old,
                    "new": d.new,
                    "delta": d.delta,
                    "regressed": d.regressed,
                }
                for d in self.deltas
            ],
            "seconds": [
                {"suite": d.suite, "entry": d.entry, "old": d.old, "new": d.new}
                for d in self.seconds
            ],
            "structural": list(self.structural),
            "informational": list(self.informational),
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True) + "\n"

    def table(self) -> str:
        from repro.analysis.tables import render_table

        if not self.deltas and not self.structural:
            return "no metric changes between the two reports"
        rows = [
            [
                d.suite,
                d.entry,
                d.measure,
                d.old,
                d.new,
                f"{d.delta:+g}",
                "REGRESSED" if d.regressed else "improved",
            ]
            for d in self.deltas
        ]
        table = render_table(
            ["suite", "entry", "measure", "old", "new", "delta", "verdict"],
            rows,
            title="suite report diff (changed measures)",
        )
        if self.structural:
            table += "\n" + "\n".join(f"REGRESSED {note}" for note in self.structural)
        return table


def _index_report_payload(payload: Any, *, where: str) -> Dict[str, Dict[str, Any]]:
    """``{suite name: {entry name: entry dict}}`` from a report artifact."""
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise ConfigurationError(
            f"{where} must hold a suite-report list (what "
            "'suite run --out' / 'suite check --out' write), got "
            f"{type(payload).__name__}"
        )
    suites: Dict[str, Dict[str, Any]] = {}
    for index, report in enumerate(payload):
        if not isinstance(report, dict) or "suite" not in report:
            raise ConfigurationError(
                f"report {index} of {where} is not a suite report "
                "(missing the 'suite' field)"
            )
        entries = report.get("entries")
        if not isinstance(entries, list):
            raise ConfigurationError(
                f"report {index} of {where} has no 'entries' list"
            )
        by_name: Dict[str, Any] = {}
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigurationError(
                    f"report {index} of {where} holds a malformed entry "
                    "(each needs a 'name')"
                )
            by_name[entry["name"]] = entry
        suites[report["suite"]] = by_name
    return suites


def diff_reports(
    old_payload: Any,
    new_payload: Any,
    *,
    old_label: str = "OLD",
    new_label: str = "NEW",
) -> SuiteDiff:
    """Compare two report artifacts; see the module notes on what counts
    as a regression."""
    old_suites = _index_report_payload(old_payload, where=old_label)
    new_suites = _index_report_payload(new_payload, where=new_label)
    deltas: List[MeasureDelta] = []
    seconds: List[MeasureDelta] = []
    structural: List[str] = []
    informational: List[str] = []
    for suite_name, old_entries in old_suites.items():
        new_entries = new_suites.get(suite_name)
        if new_entries is None:
            structural.append(f"{suite_name}: suite missing from {new_label}")
            continue
        for entry_name, old_entry in old_entries.items():
            new_entry = new_entries.get(entry_name)
            if new_entry is None:
                structural.append(
                    f"{suite_name}/{entry_name}: entry missing from {new_label}"
                )
                continue
            if old_entry.get("all_completed", True) and not new_entry.get(
                "all_completed", True
            ):
                structural.append(
                    f"{suite_name}/{entry_name}: runs completed in "
                    f"{old_label} but not in {new_label}"
                )
            old_observed = old_entry.get("observed", {})
            new_observed = new_entry.get("observed", {})
            for measure in PIN_MEASURES:
                if measure not in old_observed or measure not in new_observed:
                    continue
                old_value = old_observed[measure]
                new_value = new_observed[measure]
                if new_value != old_value:
                    deltas.append(
                        MeasureDelta(
                            suite_name, entry_name, measure, old_value, new_value
                        )
                    )
            if "seconds" in old_entry and "seconds" in new_entry:
                if new_entry["seconds"] != old_entry["seconds"]:
                    seconds.append(
                        MeasureDelta(
                            suite_name,
                            entry_name,
                            "seconds",
                            old_entry["seconds"],
                            new_entry["seconds"],
                        )
                    )
        for entry_name in new_entries:
            if entry_name not in old_entries:
                informational.append(
                    f"{suite_name}/{entry_name}: new entry (no baseline)"
                )
    for suite_name in new_suites:
        if suite_name not in old_suites:
            informational.append(f"{suite_name}: new suite (no baseline)")
    return SuiteDiff(
        deltas=deltas,
        seconds=seconds,
        structural=structural,
        informational=informational,
    )


__all__ = [
    "PIN_MEASURES",
    "SUITE_FORMAT_VERSION",
    "EntryReport",
    "MeasureDelta",
    "Suite",
    "SuiteDiff",
    "SuiteEntry",
    "SuiteReport",
    "check_pins",
    "diff_reports",
    "discover_suites",
    "load_suite",
]
