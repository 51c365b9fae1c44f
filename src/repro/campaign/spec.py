"""Campaign grid specs: a :class:`~repro.api.Sweep` planned into chunks.

A *campaign* is the big-grid regime the suite layer does not reach: the
paper's bounds are worst-case statements over all crash patterns, so
"predicted vs simulated" only becomes visible statistically over
:math:`10^4`-:math:`10^5` runs.  A :class:`CampaignSpec` holds such a
grid - a :class:`~repro.api.Sweep` over protocols x adversaries x n x t
x seeds - and *plans* it into deterministic fixed-size chunks that the
runner (:mod:`repro.campaign.runner`) executes, checkpoints and resumes.

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

``axes`` is read by :func:`repro.api.parse_axes`, the sweep's own axis
parser: every axis but ``seeds`` is optional and a missing one keeps the
base scenario's value; ``seeds`` takes an explicit list or the
``{"start", "count"}`` range form.  ``pins`` are optional campaign-level
regression pins over the merged worst-case reduction (checked like
suite pins, by :func:`repro.suites.check_pins`).

**Grid order is the contract.**  :class:`~repro.api.Sweep` owns it:
scenarios enumerate with seeds fastest::

    for protocol: for adversary: for n: for t: for seed

and chunk ``i`` is rows ``[i*chunk_size, (i+1)*chunk_size)`` of that
enumeration, addressed by :meth:`Sweep.scenario_at`.  The order is what
makes the chunk ledger meaningful across interrupted sessions and
shards: every planner on every machine derives the identical chunk
list, and :meth:`CampaignSpec.digest` (SHA-256 of the canonical grid
definition) is recorded in the ledger header so a drifted spec is
rejected instead of silently mis-merged.

A *cell* is one ``(protocol, adversary, n, t)`` grid point - the unit
the report reduces over seeds (per-cell worst/mean, matching the
paper's worst-case reading).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import codec
from repro.api import Scenario, Sweep, parse_axes
from repro.errors import ConfigurationError
from repro.sim.adversary import normalize_adversary_spec
from repro.suites import check_pins

#: The campaign file format version this loader understands.
CAMPAIGN_FORMAT_VERSION = 1

_SPEC_FIELDS = {"campaign", "version", "description", "base", "axes",
                "chunk_size", "pins"}

DEFAULT_CHUNK_SIZE = 100


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
    """A validated campaign: its grid, chunking, labels and pins.

    ``grid`` must give a ``seeds`` axis.  Its base scenario is kept
    unnamed (a given name is dropped): a label is not part of the grid,
    yet every run echoes its scenario into the results a ledger records.
    """

    name: str
    grid: Sweep
    chunk_size: int = DEFAULT_CHUNK_SIZE
    description: str = ""
    pins: Dict[str, float] = field(default_factory=dict)
    path: Optional[Path] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                "a campaign needs a non-empty 'campaign' name"
            )
        if (
            isinstance(self.chunk_size, bool)
            or not isinstance(self.chunk_size, int)
            or self.chunk_size < 1
        ):
            raise ConfigurationError(
                f"'chunk_size' must be a positive integer, got "
                f"{self.chunk_size!r}"
            )
        if self.grid.seeds is None:
            raise ConfigurationError(
                "a campaign grid requires a 'seeds' axis (explicit list "
                "or {'start', 'count'} range)"
            )
        if self.grid.base.name is not None:
            self.grid = dataclasses.replace(
                self.grid, base=self.grid.base.replace(name=None)
            )
        # The grid must be serializable end to end: chunks ship to
        # worker pools / remote servers as dicts and the ledger records
        # content addresses, so a live adversary object cannot campaign.
        try:
            self.grid_dict()
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"campaign grid does not serialize: {exc}"
            ) from exc
        self.pins = check_pins(self.pins, "campaign")

    # ---- grid arithmetic ---------------------------------------------

    @property
    def total_runs(self) -> int:
        return len(self.grid)

    @property
    def total_chunks(self) -> int:
        return math.ceil(self.total_runs / self.chunk_size)

    @property
    def total_cells(self) -> int:
        return self.total_runs // len(self.grid.seeds)

    def chunk_length(self, index: int) -> int:
        if not 0 <= index < self.total_chunks:
            raise ConfigurationError(
                f"chunk index {index} out of range; this campaign plans "
                f"{self.total_chunks} chunks"
            )
        start = index * self.chunk_size
        return min(self.chunk_size, self.total_runs - start)

    def scenario_at(self, offset: int) -> Scenario:
        """Row ``offset`` of the grid enumeration (seeds fastest)."""
        return self.grid.scenario_at(offset)

    def scenarios(self) -> Iterator[Scenario]:
        """The full grid in enumeration order."""
        return self.grid.scenarios()

    def chunk(self, index: int) -> CampaignChunk:
        """Planned chunk ``index``: its scenarios, materialized."""
        length = self.chunk_length(index)
        start = index * self.chunk_size
        return CampaignChunk(
            index=index,
            start=start,
            scenarios=tuple(
                self.grid.scenario_at(start + row) for row in range(length)
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
        excluded, so renaming a campaign keeps its ledgers valid).

        Every axis is spelled out, a missing one as the base's value;
        ``grid.to_dict()`` raises on a live adversary."""
        return {
            **self.grid.axes(),
            **self.grid.to_dict(),
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
        axes = self.grid.to_dict()
        data["base"] = axes.pop("base")
        data["axes"] = axes
        data["chunk_size"] = self.chunk_size
        if self.pins:
            data["pins"] = {k: self.pins[k] for k in sorted(self.pins)}
        return data

    @classmethod
    def from_dict(cls, data: Any, *, path: Optional[Path] = None) -> "CampaignSpec":
        where = f"campaign file {path}" if path is not None else "campaign dict"
        codec.check_fields(
            data, where, _SPEC_FIELDS, ("campaign", "version", "base", "axes"),
            version=CAMPAIGN_FORMAT_VERSION,
        )
        axes = data["axes"]
        if not isinstance(axes, dict):
            raise ConfigurationError(
                f"'axes' of {where} must be a dict, got {type(axes).__name__}"
            )
        try:
            return cls(
                name=data["campaign"],
                grid=Sweep(
                    Scenario.from_dict(data["base"]), **parse_axes(axes, "axes")
                ),
                chunk_size=data.get("chunk_size", DEFAULT_CHUNK_SIZE),
                description=str(data.get("description", "")),
                pins=data.get("pins", {}),
                path=path,
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        return cls.from_dict(codec.read(path, "campaign file"), path=Path(path))

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
        axes = self.grid.axes()
        return {
            "campaign": self.name,
            "digest": self.digest(),
            "runs": self.total_runs,
            "chunks": self.total_chunks,
            "chunk_size": self.chunk_size,
            "cells": self.total_cells,
            "axes": {
                "protocols": list(axes["protocols"]),
                "adversaries": [adversary_label(spec) for spec in axes["adversaries"]],
                "n": list(axes["n"]),
                "t": list(axes["t"]),
                "seeds": len(axes["seeds"]),
            },
            "pinned": bool(self.pins),
        }


def load_campaign(path) -> CampaignSpec:
    """Load and validate one campaign spec file (JSON, or TOML when it
    ends in ``.toml``)."""
    return CampaignSpec.from_file(path)


__all__ = [
    "CAMPAIGN_FORMAT_VERSION",
    "DEFAULT_CHUNK_SIZE",
    "CampaignChunk",
    "CampaignSpec",
    "adversary_label",
    "load_campaign",
]
