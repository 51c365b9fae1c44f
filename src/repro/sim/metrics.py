"""Accounting for the paper's complexity measures.

The paper charges three quantities - work (unit executions with
multiplicity), messages (each point-to-point copy of a broadcast counts),
and time (rounds until every process has retired) - plus their sum,
*effort* = work + messages.  This module tallies all of them, with
per-kind and per-process breakdowns so the benchmark tables can show not
just totals but where each protocol spends.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.sim.actions import MessageKind

_INT_TYPE = frozenset({int})
_KIND_BY_VALUE = {kind.value: kind for kind in MessageKind}


@dataclass
class Metrics:
    """Mutable tally of one simulation run."""

    work_total: int = 0
    messages_total: int = 0
    work_by_unit: Counter = field(default_factory=Counter)
    work_by_process: Counter = field(default_factory=Counter)
    messages_by_kind: Counter = field(default_factory=Counter)
    messages_by_process: Counter = field(default_factory=Counter)
    crashes: int = 0
    recoveries: int = 0            # crash-recover rejoins (see sim.crashes)
    rounds: int = 0                # last round in which anything happened
    retire_round: int = 0          # round by which every process retired
    activations: int = 0           # times a process became active (A/B/C)
    #: The Kanellakis-Shvartsman measure discussed in Section 1.1: the sum
    #: over rounds of the number of non-faulty processes, i.e. each process
    #: is charged for every round up to its retirement *whether or not it
    #: expends effort*.  The paper argues against charging idle rounds -
    #: comparing this column with `effort` makes the §1.1 point measurable.
    available_processor_steps: int = 0

    # ---- recording -------------------------------------------------

    def record_work(self, pid: int, unit: int, round_number: int) -> None:
        # ``get`` rather than ``+=``: a first count would go through
        # ``Counter.__missing__``, a Python-level call, once per unit.
        self.work_total += 1
        by_unit = self.work_by_unit
        by_unit[unit] = by_unit.get(unit, 0) + 1
        by_process = self.work_by_process
        by_process[pid] = by_process.get(pid, 0) + 1
        if round_number > self.rounds:
            self.rounds = round_number

    def record_sends(
        self, src: int, kind: MessageKind, count: int, round_number: int
    ) -> None:
        """Book ``count`` point-to-point copies of ``kind`` sent by ``src``.

        The one send-accounting call: each broadcast (on the async
        engine, also a single copy) is booked through it.  The paper's
        measure charges every copy; only the bookkeeping is batched.
        """
        self.messages_total += count
        by_kind = self.messages_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + count
        by_process = self.messages_by_process
        by_process[src] = by_process.get(src, 0) + count
        if round_number > self.rounds:
            self.rounds = round_number

    def record_crash(self, pid: int, round_number: int) -> None:
        self.crashes += 1
        self.retire_round = max(self.retire_round, round_number)

    def record_recovery(self, pid: int, round_number: int) -> None:
        self.recoveries += 1
        self.rounds = max(self.rounds, round_number)

    def record_retire(self, pid: int, round_number: int) -> None:
        self.retire_round = max(self.retire_round, round_number)

    def record_activation(self, pid: int, round_number: int) -> None:
        self.activations += 1
        self.rounds = max(self.rounds, round_number)

    # ---- derived measures -------------------------------------------

    @property
    def effort(self) -> int:
        """The paper's effort measure: work plus messages."""
        return self.work_total + self.messages_total

    def redundant_work(self) -> int:
        """Units executed beyond the first execution of each unit."""
        return sum(count - 1 for count in self.work_by_unit.values() if count > 1)

    def distinct_units_done(self) -> int:
        return len(self.work_by_unit)

    def messages_of(self, kind: MessageKind) -> int:
        return self.messages_by_kind.get(kind, 0)

    def measures(self) -> Dict[str, int]:
        """The six per-run measures the paper's worst-case statements
        reduce over, keyed by name.  This is the one table of them:
        :data:`MEASURES`, ``ResultSet.worst()``/``mean()``, the suite and
        campaign pins and the CLI tables all read it, and
        :meth:`as_dict` leads with it."""
        return {
            "work": self.work_total,
            "messages": self.messages_total,
            "effort": self.effort,
            "rounds": self.retire_round,
            "redundant_work": self.redundant_work(),
            "crashes": self.crashes,
        }

    def as_dict(self, *, full: bool = False) -> Dict[str, object]:
        """Flat summary used by tables, benches and EXPERIMENTS.md.

        ``full=True`` additionally emits the per-unit/per-process
        breakdown counters and the last-event round, making the dict
        *lossless*: :meth:`from_dict` rebuilds an equal :class:`Metrics`
        from it.  The default summary form is unchanged (and one-way) -
        it is what tables, ``--json`` and the benchmarks print.
        """
        data: Dict[str, object] = {
            **self.measures(),
            "recoveries": self.recoveries,
            "activations": self.activations,
            "available_processor_steps": self.available_processor_steps,
            "messages_by_kind": {
                kind.value: count for kind, count in sorted(self.messages_by_kind.items())
            },
        }
        if full:
            data["last_event_round"] = self.rounds
            data["work_by_unit"] = {
                str(unit): count for unit, count in sorted(self.work_by_unit.items())
            }
            data["work_by_process"] = {
                str(pid): count for pid, count in sorted(self.work_by_process.items())
            }
            data["messages_by_process"] = {
                str(pid): count
                for pid, count in sorted(self.messages_by_process.items())
            }
        return data

    #: Fields :meth:`from_dict` requires - exactly what ``as_dict(full=True)``
    #: adds on top of the scalar summary.
    _FULL_FIELDS = (
        "work",
        "messages",
        "rounds",
        "crashes",
        "recoveries",
        "activations",
        "available_processor_steps",
        "messages_by_kind",
        "last_event_round",
        "work_by_unit",
        "work_by_process",
        "messages_by_process",
    )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Metrics":
        """Rebuild a :class:`Metrics` from ``as_dict(full=True)`` output.

        The summary form (``full=False``) is rejected: it drops the
        per-unit/per-process counters, so rehydrating it could not
        produce an object equal to the original.  Malformed payloads
        raise :class:`ConfigurationError` naming the offending field and
        value.  Content-addressed caches should notice corrupted
        payloads, so every breakdown must sum to its stated total, hold
        non-negative counts only, and name no unit id below 1.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a metrics payload must be a dict, got {type(data).__name__}"
            )
        missing = [name for name in cls._FULL_FIELDS if name not in data]
        if missing:
            raise ConfigurationError(
                f"metrics payload lacks field(s) {missing}; rehydration needs "
                "the lossless form written by as_dict(full=True) / "
                "RunResult.to_dict(full=True)"
            )

        def scalar(name: str) -> int:
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"metrics field {name!r} must be an integer, got {value!r}"
                )
            return value

        def counter(name: str, key_of=int, ids="an integer process/unit id") -> Counter:
            raw = data[name]
            if not isinstance(raw, dict):
                raise ConfigurationError(
                    f"metrics field {name!r} must be a mapping, got {raw!r}"
                )
            values = raw.values()
            rebuilt: Counter = Counter()
            if {*map(type, values)} <= _INT_TYPE and min(values, default=0) >= 0:
                # Every value is a non-negative int: only the keys can
                # fail, and the loop below names the first bad one.  The
                # entries go straight into the Counter, in one pass.
                try:
                    dict.update(rebuilt, zip(map(key_of, raw), values))
                    return rebuilt
                except (KeyError, TypeError, ValueError):
                    rebuilt.clear()
            for key, value in raw.items():
                if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                    raise ConfigurationError(
                        f"metrics field {name!r} entry {key!r} must map to a "
                        f"non-negative integer, got {value!r}"
                    )
                try:
                    rebuilt[key_of(key)] = value
                except (KeyError, TypeError, ValueError):
                    raise ConfigurationError(
                        f"metrics field {name!r} key {key!r} is not {ids}"
                    ) from None
            return rebuilt

        metrics = cls(
            work_total=scalar("work"),
            messages_total=scalar("messages"),
            work_by_unit=counter("work_by_unit"),
            work_by_process=counter("work_by_process"),
            messages_by_kind=counter(
                "messages_by_kind",
                _KIND_BY_VALUE.__getitem__,
                "a message kind; accepted: " + ", ".join(_KIND_BY_VALUE),
            ),
            messages_by_process=counter("messages_by_process"),
            crashes=scalar("crashes"),
            recoveries=scalar("recoveries"),
            rounds=scalar("last_event_round"),
            retire_round=scalar("rounds"),
            activations=scalar("activations"),
            available_processor_steps=scalar("available_processor_steps"),
        )
        if metrics.work_by_unit and min(metrics.work_by_unit) < 1:
            raise ConfigurationError(
                f"metrics field 'work_by_unit' names unit "
                f"{min(metrics.work_by_unit)}, but unit ids start at 1; the "
                "payload is corrupt"
            )
        for name, total, breakdown in (
            ("work_by_unit", metrics.work_total, metrics.work_by_unit),
            ("work_by_process", metrics.work_total, metrics.work_by_process),
            ("messages_by_kind", metrics.messages_total, metrics.messages_by_kind),
            ("messages_by_process", metrics.messages_total, metrics.messages_by_process),
        ):
            observed = sum(breakdown.values())
            if observed != total:
                raise ConfigurationError(
                    f"metrics field {name!r} sums to {observed}, but the "
                    f"payload states a total of {total}; the payload is "
                    "corrupt"
                )
        return metrics


#: Names of the :meth:`Metrics.measures` table, in display order.
MEASURES = tuple(Metrics().measures())


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated execution.

    Attributes:
        completed: every work unit was performed at least once.
        survivors: number of processes that never crashed (they may have
            terminated cleanly).
        metrics: the full accounting tally.
        halted: number of processes that terminated cleanly.
        stalled: the run ended because nothing could make progress (only
            possible when every process crashed - otherwise the engine
            raises ``SimulationStalled``).
        config: echo of the declarative scenario that produced this run
            (set by :meth:`repro.api.Scenario.run`; ``None`` for direct
            engine invocations).
    """

    completed: bool
    survivors: int
    halted: int
    metrics: Metrics
    stalled: bool = False
    note: Optional[str] = None
    config: Optional[Dict[str, object]] = None

    @property
    def effort(self) -> int:
        return self.metrics.effort

    def summary(self) -> Dict[str, object]:
        data = dict(self.metrics.as_dict())
        data.update(
            completed=self.completed, survivors=self.survivors, halted=self.halted
        )
        return data

    def to_dict(self, *, full: bool = False) -> Dict[str, object]:
        """JSON-compatible report: completion, accounting, config echo
        (what ``python -m repro run --json`` prints).  ``full=True`` gives
        the lossless form :meth:`from_dict` rehydrates, which
        :mod:`repro.codec` encodes for the cache, ledgers and the wire.
        """
        payload: Dict[str, object] = {
            "completed": self.completed,
            "survivors": self.survivors,
            "halted": self.halted,
            "stalled": self.stalled,
            "metrics": self.metrics.as_dict(full=full),
        }
        if self.note is not None:
            payload["note"] = self.note
        if self.config is not None:
            payload["config"] = self.config
        return payload

    _FIELDS = frozenset("completed survivors halted stalled metrics note config".split())

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a :class:`RunResult` from ``to_dict(full=True)`` output
        (:func:`repro.codec.decode` is the way in from text).  Malformed
        payloads raise :class:`ConfigurationError` naming the offending
        field and value."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a run-result payload must be a dict, got {type(data).__name__}"
            )
        unknown = set(data) - cls._FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown run-result field(s) {sorted(unknown)}; accepted: "
                + ", ".join(sorted(cls._FIELDS))
            )
        missing = {"completed", "survivors", "halted", "metrics"} - set(data)
        if missing:
            raise ConfigurationError(
                f"a run-result payload requires field(s) {sorted(missing)}"
            )
        for name in ("completed", "stalled"):
            value = data.get(name, False)
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"run-result field {name!r} must be a boolean, got {value!r}"
                )
        for name in ("survivors", "halted"):
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"run-result field {name!r} must be an integer, got {value!r}"
                )
        note = data.get("note")
        if note is not None and not isinstance(note, str):
            raise ConfigurationError(
                f"run-result field 'note' must be a string, got {note!r}"
            )
        config = data.get("config")
        if config is not None:
            if not isinstance(config, dict):
                raise ConfigurationError(
                    f"run-result field 'config' must be a dict, got {config!r}"
                )
            # JSON stringifies int dict keys (e.g. crash_times pids); a
            # round trip through Scenario restores the native shape so
            # rehydrated results compare equal to in-process ones.
            from repro.api import Scenario

            config = Scenario.from_dict(config).to_dict()
        return cls(
            completed=data["completed"],
            survivors=data["survivors"],
            halted=data["halted"],
            metrics=Metrics.from_dict(data["metrics"]),
            stalled=data.get("stalled", False),
            note=note,
            config=config,
        )
