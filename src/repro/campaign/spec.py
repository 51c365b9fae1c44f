"""Campaign grid specs: declarative seeds x n x t x adversary x protocol grids.

A *campaign* is the big-grid regime the suite layer does not reach: the
paper's bounds are worst-case statements over all crash patterns, so
"predicted vs simulated" only becomes visible statistically over
:math:`10^4`-:math:`10^5` runs.  A :class:`CampaignSpec` describes such a
grid declaratively - one base :class:`~repro.api.Scenario` plus axes -
and *plans* it into deterministic fixed-size chunks that the runner
(:mod:`repro.campaign.runner`) executes, checkpoints and resumes.

File format (see ``docs/campaigns.md`` for the full reference)::

    {
      "campaign": "paper-grid",
      "version": 1,
      "description": "A vs D under two adversaries at two sizes",
      "base": {"protocol": "A", "n": 64, "t": 8, "seed": 0},
      "axes": {
        "protocols": ["A", "D"],
        "adversaries": ["random:3,max_action_index=10", null],
        "n": [48, 64],
        "seeds": {"start": 0, "count": 25}
      },
      "chunk_size": 20,
      "pins": {"work": 167, "effort": 551}
    }

Every axis is optional; a missing axis keeps the base scenario's value.
``seeds`` accepts either an explicit list or the ``{"start", "count"}``
range form (a :math:`10^5`-seed grid should not need a :math:`10^5`-element
list).  ``pins`` are optional campaign-level regression pins over the
merged worst-case reduction (same measures as suite pins).

**Grid order is the contract.**  Scenarios enumerate in document order
with seeds fastest::

    for protocol: for adversary: for n: for t: for seed

and chunk ``i`` is rows ``[i*chunk_size, (i+1)*chunk_size)`` of that
enumeration.  The order is what makes the chunk ledger meaningful across
interrupted sessions and shards: every planner on every machine derives
the identical chunk list, and :meth:`CampaignSpec.digest` (SHA-256 of
the canonical grid definition) is recorded in the ledger header so a
drifted spec is rejected instead of silently mis-merged.

A *cell* is one ``(protocol, adversary, n, t)`` grid point - the unit
the report reduces over seeds (per-cell worst/mean, matching the
paper's worst-case reading).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api import Scenario, check_axis, is_int
from repro.errors import ConfigurationError
from repro.sim.adversary import normalize_adversary_spec
from repro.sim.metrics import MEASURES as PIN_MEASURES

#: The campaign file format version this loader understands.
CAMPAIGN_FORMAT_VERSION = 1

#: Axis names the ``axes`` table accepts, in grid-nesting order
#: (seeds vary fastest).
GRID_AXES = ("protocols", "adversaries", "n", "t", "seeds")

_SPEC_FIELDS = {"campaign", "version", "description", "base", "axes",
                "chunk_size", "pins"}

DEFAULT_CHUNK_SIZE = 100


def _seed_list(raw: Any, *, where: str) -> List[int]:
    """Materialize the ``seeds`` axis: explicit list or range form."""
    if isinstance(raw, dict):
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
    return check_axis(raw, where, entry=is_int, expected="integers")


def adversary_label(spec: Any) -> str:
    """Compact human label for one adversary axis value (cell naming)."""
    normalized = normalize_adversary_spec(spec)
    if normalized is None:
        return "none"
    kind = normalized["kind"]
    params = ",".join(
        f"{key}={normalized[key]}" for key in sorted(normalized) if key != "kind"
    )
    return f"{kind}:{params}" if params else kind


@dataclass(frozen=True)
class CampaignChunk:
    """One planned slice of the grid: ``chunk_size`` consecutive rows."""

    index: int
    start: int                    # global row offset of the first scenario
    scenarios: Tuple[Scenario, ...]

    def __len__(self) -> int:
        return len(self.scenarios)

    def keys(self) -> List[str]:
        return [scenario.cache_key() for scenario in self.scenarios]


@dataclass
class CampaignSpec:
    """A validated campaign grid: base scenario, axes, chunking, pins."""

    name: str
    base: Scenario
    seeds: List[int]
    protocols: Optional[List[str]] = None
    adversaries: Optional[List[Any]] = None
    n_values: Optional[List[int]] = None
    t_values: Optional[List[int]] = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    description: str = ""
    pins: Dict[str, float] = field(default_factory=dict)
    path: Optional[Path] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                "a campaign needs a non-empty 'campaign' name"
            )
        if not isinstance(self.base, Scenario):
            raise ConfigurationError(
                f"campaign 'base' must be a Scenario, got "
                f"{type(self.base).__name__}"
            )
        # The grid must be serializable end to end: chunks ship to
        # worker pools / remote servers as dicts and the ledger records
        # content addresses, so a live adversary object cannot campaign.
        try:
            self.base.cache_key()
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"campaign base scenario does not serialize: {exc}"
            ) from exc
        if (
            isinstance(self.chunk_size, bool)
            or not isinstance(self.chunk_size, int)
            or self.chunk_size < 1
        ):
            raise ConfigurationError(
                f"'chunk_size' must be a positive integer, got "
                f"{self.chunk_size!r}"
            )
        if not self.seeds:
            raise ConfigurationError("the 'seeds' axis must be non-empty")
        if self.protocols is not None and not self.protocols:
            raise ConfigurationError("'protocols' axis must be non-empty")
        if self.adversaries is not None:
            if not self.adversaries:
                raise ConfigurationError("'adversaries' axis must be non-empty")
            # Canonicalise eagerly so spelling variants digest equal and
            # bad specs fail at load, not mid-campaign.
            self.adversaries = [
                normalize_adversary_spec(spec) for spec in self.adversaries
            ]
        unknown_pins = set(self.pins) - set(PIN_MEASURES)
        if unknown_pins:
            raise ConfigurationError(
                f"unknown pin measure(s) {sorted(unknown_pins)}; accepted: "
                + ", ".join(PIN_MEASURES)
            )
        for measure, value in self.pins.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"campaign pin {measure!r} must be a number, got {value!r}"
                )

    # ---- axis views --------------------------------------------------

    @property
    def protocol_axis(self) -> List[str]:
        return list(self.protocols) if self.protocols is not None else [self.base.protocol]

    @property
    def adversary_axis(self) -> List[Any]:
        if self.adversaries is not None:
            return list(self.adversaries)
        return [self.base.adversary]

    @property
    def n_axis(self) -> List[int]:
        return list(self.n_values) if self.n_values is not None else [self.base.n]

    @property
    def t_axis(self) -> List[int]:
        return list(self.t_values) if self.t_values is not None else [self.base.t]

    # ---- grid arithmetic ---------------------------------------------

    @property
    def total_runs(self) -> int:
        return (
            len(self.protocol_axis)
            * len(self.adversary_axis)
            * len(self.n_axis)
            * len(self.t_axis)
            * len(self.seeds)
        )

    @property
    def total_chunks(self) -> int:
        return math.ceil(self.total_runs / self.chunk_size)

    @property
    def total_cells(self) -> int:
        return self.total_runs // len(self.seeds)

    def chunk_length(self, index: int) -> int:
        if not 0 <= index < self.total_chunks:
            raise ConfigurationError(
                f"chunk index {index} out of range; this campaign plans "
                f"{self.total_chunks} chunks"
            )
        start = index * self.chunk_size
        return min(self.chunk_size, self.total_runs - start)

    def scenario_at(self, offset: int) -> Scenario:
        """Row ``offset`` of the grid enumeration (seeds fastest).

        Mixed-radix decoding makes any chunk addressable in O(size)
        without enumerating the grid prefix - resuming chunk 900 of
        1000 does not rebuild 90k scenarios.
        """
        if not 0 <= offset < self.total_runs:
            raise ConfigurationError(
                f"grid offset {offset} out of range; this campaign has "
                f"{self.total_runs} runs"
            )
        seeds = self.seeds
        t_axis = self.t_axis
        n_axis = self.n_axis
        adversaries = self.adversary_axis
        protocols = self.protocol_axis
        offset, seed_i = divmod(offset, len(seeds))
        offset, t_i = divmod(offset, len(t_axis))
        offset, n_i = divmod(offset, len(n_axis))
        proto_i, adv_i = divmod(offset, len(adversaries))
        return self.base.replace(
            protocol=protocols[proto_i],
            adversary=adversaries[adv_i],
            n=n_axis[n_i],
            t=t_axis[t_i],
            seed=seeds[seed_i],
            name=None,
        )

    def scenarios(self) -> Iterator[Scenario]:
        """The full grid in enumeration order."""
        for offset in range(self.total_runs):
            yield self.scenario_at(offset)

    def chunk(self, index: int) -> CampaignChunk:
        """Planned chunk ``index``: its scenarios, materialized."""
        length = self.chunk_length(index)
        start = index * self.chunk_size
        return CampaignChunk(
            index=index,
            start=start,
            scenarios=tuple(
                self.scenario_at(start + row) for row in range(length)
            ),
        )

    def chunks(self) -> Iterator[CampaignChunk]:
        for index in range(self.total_chunks):
            yield self.chunk(index)

    def cell_of(self, scenario: Scenario) -> Tuple[str, str, int, int]:
        """The ``(protocol, adversary label, n, t)`` cell of one run."""
        return (
            scenario.protocol,
            adversary_label(scenario.adversary),
            scenario.n,
            scenario.t,
        )

    # ---- content addressing ------------------------------------------

    def grid_dict(self) -> Dict[str, Any]:
        """The canonical grid definition - everything that determines
        the planned chunk list, and nothing else (labels and pins are
        excluded, so renaming a campaign keeps its ledgers valid)."""
        base = self.base.to_dict()
        base.pop("name", None)
        return {
            "base": base,
            "protocols": self.protocol_axis,
            "adversaries": [
                normalize_adversary_spec(spec) for spec in self.adversary_axis
            ],
            "n": self.n_axis,
            "t": self.t_axis,
            "seeds": self.seeds,
            "chunk_size": self.chunk_size,
        }

    def digest(self) -> str:
        """SHA-256 of the canonical grid definition.

        The ledger header records it; a ledger replayed against a spec
        with a different digest is rejected (the chunk indexes would
        name different scenarios)."""
        payload = json.dumps(
            self.grid_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ---- serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "campaign": self.name,
            "version": CAMPAIGN_FORMAT_VERSION,
        }
        if self.description:
            data["description"] = self.description
        data["base"] = self.base.to_dict()
        axes: Dict[str, Any] = {}
        if self.protocols is not None:
            axes["protocols"] = list(self.protocols)
        if self.adversaries is not None:
            axes["adversaries"] = [
                normalize_adversary_spec(spec) for spec in self.adversaries
            ]
        if self.n_values is not None:
            axes["n"] = list(self.n_values)
        if self.t_values is not None:
            axes["t"] = list(self.t_values)
        axes["seeds"] = list(self.seeds)
        data["axes"] = axes
        data["chunk_size"] = self.chunk_size
        if self.pins:
            data["pins"] = {k: self.pins[k] for k in sorted(self.pins)}
        return data

    @classmethod
    def from_dict(cls, data: Any, *, path: Optional[Path] = None) -> "CampaignSpec":
        where = f"campaign file {path}" if path is not None else "campaign dict"
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{where} must hold a dict, got {type(data).__name__}"
            )
        unknown = set(data) - _SPEC_FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown field(s) {sorted(unknown)} in {where}; accepted: "
                + ", ".join(sorted(_SPEC_FIELDS))
            )
        missing = {"campaign", "version", "base", "axes"} - set(data)
        if missing:
            raise ConfigurationError(
                f"{where} requires field(s) {sorted(missing)}"
            )
        version = data["version"]
        if isinstance(version, bool) or not isinstance(version, int):
            raise ConfigurationError(
                f"'version' of {where} must be an integer, got {version!r}"
            )
        if version != CAMPAIGN_FORMAT_VERSION:
            raise ConfigurationError(
                f"{where} uses format version {version}, but this loader "
                f"understands version {CAMPAIGN_FORMAT_VERSION}"
            )
        axes = data["axes"]
        if not isinstance(axes, dict):
            raise ConfigurationError(
                f"'axes' of {where} must be a dict, got {type(axes).__name__}"
            )
        unknown_axes = set(axes) - set(GRID_AXES)
        if unknown_axes:
            raise ConfigurationError(
                f"unknown axis(es) {sorted(unknown_axes)} in {where}; "
                f"accepted: {', '.join(GRID_AXES)}"
            )
        if "seeds" not in axes:
            raise ConfigurationError(
                f"'axes' of {where} requires a 'seeds' axis (explicit list "
                "or {'start', 'count'} range)"
            )
        protocols = check_axis(
            axes.get("protocols"),
            f"'protocols' axis of {where}",
            entry=lambda value: isinstance(value, str),
            expected="protocol names",
        )
        adversaries = check_axis(axes.get("adversaries"), f"'adversaries' axis of {where}")
        positive = dict(
            entry=lambda value: is_int(value) and value >= 1,
            expected="positive integers",
        )
        n_values = check_axis(axes.get("n"), f"'n' axis of {where}", **positive)
        t_values = check_axis(axes.get("t"), f"'t' axis of {where}", **positive)
        pins_raw = data.get("pins", {})
        if not isinstance(pins_raw, dict):
            raise ConfigurationError(
                f"'pins' of {where} must be a dict, got "
                f"{type(pins_raw).__name__}"
            )
        try:
            return cls(
                name=data["campaign"],
                base=Scenario.from_dict(data["base"]),
                seeds=_seed_list(axes["seeds"], where=f"'seeds' axis of {where}"),
                protocols=protocols,
                adversaries=adversaries,
                n_values=n_values,
                t_values=t_values,
                chunk_size=data.get("chunk_size", DEFAULT_CHUNK_SIZE),
                description=str(data.get("description", "")),
                pins=dict(pins_raw),
                path=path,
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read campaign file {path}: {exc}"
            ) from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"campaign file {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data, path=path)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    def save(self, path=None) -> Path:
        path = Path(path) if path is not None else self.path
        if path is None:
            raise ConfigurationError(
                "this campaign has no path; pass one to save()"
            )
        path.write_text(self.to_json())
        return path

    # ---- planning summary --------------------------------------------

    def plan_summary(self) -> Dict[str, Any]:
        """Grid arithmetic without materializing a single scenario."""
        return {
            "campaign": self.name,
            "digest": self.digest(),
            "runs": self.total_runs,
            "chunks": self.total_chunks,
            "chunk_size": self.chunk_size,
            "cells": self.total_cells,
            "axes": {
                "protocols": self.protocol_axis,
                "adversaries": [
                    adversary_label(spec) for spec in self.adversary_axis
                ],
                "n": self.n_axis,
                "t": self.t_axis,
                "seeds": len(self.seeds),
            },
            "pinned": bool(self.pins),
        }


def load_campaign(path) -> CampaignSpec:
    """Load and validate one campaign spec file (JSON)."""
    return CampaignSpec.from_file(path)


__all__ = [
    "CAMPAIGN_FORMAT_VERSION",
    "DEFAULT_CHUNK_SIZE",
    "GRID_AXES",
    "CampaignChunk",
    "CampaignSpec",
    "adversary_label",
    "load_campaign",
]
