"""Campaign reports: the checkpointed grid merged back into one ResultSet.

The report is always built **from the ledger**, never from in-memory
results - the ledger is the source of truth, and building through it
proves the checkpoint round-trip: every payload rehydrates through
:func:`repro.codec.decode`, gets its requesting
scenario's config echo re-attached (exactly what the result cache does),
is integrity-checked against the grid (the recorded content address must
equal the planned scenario's :meth:`~repro.api.Scenario.cache_key`), and
the per-chunk :class:`~repro.api.ResultSet` objects merge via
:meth:`ResultSet.merge` in plan order.

Determinism contract: the ``results`` section of
:meth:`CampaignReport.as_dict` is a pure function of the campaign spec -
interrupted/resumed, sharded, cached, remote or serial executions all
produce byte-identical ``results``.  Execution provenance (what actually
ran vs. came from the ledger/cache this session) lives in the separate
``execution`` section, which is *expected* to differ between sessions;
bit-equality checks compare everything else.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import codec
from repro.api import ResultSet
from repro.campaign.ledger import CampaignState
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError
from repro.suites import PIN_MEASURES

Cell = Tuple[str, str, int, int]  # (protocol, adversary label, n, t)


@dataclass(frozen=True)
class CampaignCell:
    """Per-measure reductions of one grid cell over its seeds."""

    protocol: str
    adversary: str
    n: int
    t: int
    runs: int
    worst: Dict[str, float]
    mean: Dict[str, float]
    all_completed: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "adversary": self.adversary,
            "n": self.n,
            "t": self.t,
            "runs": self.runs,
            "worst": dict(self.worst),
            "mean": {k: round(v, 6) for k, v in self.mean.items()},
            "all_completed": self.all_completed,
        }


@dataclass
class CampaignReport:
    """The merged outcome of one campaign grid."""

    spec: CampaignSpec
    result_set: ResultSet
    cells: List[CampaignCell]
    chunks_merged: int
    complete: bool
    execution: Dict[str, Any]

    # ---- pins --------------------------------------------------------

    def failures(self) -> List[str]:
        """Pin mismatches plus incomplete-run verdicts (suite semantics:
        pins are exact, over the merged worst-case reduction)."""
        messages = []
        if not self.complete:
            messages.append(
                f"campaign is incomplete: {self.chunks_merged} of "
                f"{self.spec.total_chunks} chunks merged"
            )
        if not self.result_set.all_completed:
            messages.append("not every run completed its work")
        if self.spec.pins and self.complete:
            observed = self.result_set.worst()
            for measure in sorted(self.spec.pins):
                pinned = self.spec.pins[measure]
                got = observed[measure]
                if got != pinned:
                    messages.append(
                        f"{measure}: observed {got!r} != pinned {pinned!r}"
                    )
        return messages

    @property
    def passed(self) -> bool:
        return not self.failures()

    # ---- export ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        spec = self.spec
        return {
            "campaign": spec.name,
            "digest": spec.digest(),
            "grid": {
                "runs": spec.total_runs,
                "chunks": spec.total_chunks,
                "chunk_size": spec.chunk_size,
                "cells": spec.total_cells,
                "seeds": len(spec.grid.seeds),
            },
            "complete": self.complete,
            "results": {
                "runs": len(self.result_set),
                "worst": self.result_set.worst(),
                "mean": {
                    k: round(v, 6) for k, v in self.result_set.mean().items()
                },
                "all_completed": self.result_set.all_completed,
                "cells": [cell.as_dict() for cell in self.cells],
            },
            "pins": {k: spec.pins[k] for k in sorted(spec.pins)},
            "failures": self.failures(),
            "passed": self.passed,
            "execution": dict(self.execution),
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True) + "\n"

    def table(self) -> str:
        """Markdown: one row per cell, worst-case measures + mean effort."""
        from repro.analysis.tables import render_table

        rows = []
        for cell in self.cells:
            rows.append(
                [
                    cell.protocol,
                    cell.adversary,
                    cell.n,
                    cell.t,
                    cell.runs,
                    cell.worst["work"],
                    cell.worst["messages"],
                    cell.worst["effort"],
                    f"{cell.mean['effort']:.1f}",
                    float(cell.worst["rounds"]),
                    "yes" if cell.all_completed else "NO",
                ]
            )
        title = (
            f"campaign {self.spec.name!r} "
            f"({len(self.result_set)} runs, {len(self.cells)} cells"
            + ("" if self.complete else ", INCOMPLETE")
            + ")"
        )
        return render_table(
            [
                "protocol",
                "adversary",
                "n",
                "t",
                "runs",
                "worst work",
                "worst msgs",
                "worst effort",
                "mean effort",
                "worst rounds",
                "completed",
            ],
            rows,
            title=title,
        )


def build_report(
    spec: CampaignSpec,
    state: CampaignState,
    *,
    partial: bool = False,
    execution: Optional[Dict[str, Any]] = None,
) -> CampaignReport:
    """Merge the checkpointed chunks into one :class:`CampaignReport`.

    Requires every chunk to be checkpointed unless ``partial=True`` (a
    partial report merges what exists, in plan order, and is marked
    incomplete).  Every recorded content address is verified against the
    planned scenario's ``cache_key()``; a mismatch means the ledger does
    not describe this grid and raises :class:`ConfigurationError`.
    """
    chunk_sets: List[ResultSet] = []
    cell_order: List[Cell] = []
    cell_entries: Dict[Cell, List] = {}
    merged_chunks = 0
    for chunk in spec.chunks():
        if chunk.index not in state.completed:
            if partial:
                continue
            state.record_for(chunk.index)  # raises with the named chunk
        record = state.completed[chunk.index]
        keys = record["keys"]
        entries = []
        for scenario, key, payload in zip(chunk.scenarios, keys, record["results"]):
            expected = scenario.cache_key()
            if key != expected:
                raise ConfigurationError(
                    f"ledger chunk {chunk.index} records content address "
                    f"{key[:12]}... where the plan expects "
                    f"{expected[:12]}...; the ledger does not describe this "
                    "campaign's grid"
                )
            try:
                result = codec.decode(payload)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"ledger chunk {chunk.index} result for key "
                    f"{key[:12]}... does not rehydrate: {exc}"
                ) from exc
            result = dataclasses.replace(result, config=scenario.to_dict())
            entries.append((scenario, result))
            cell = spec.cell_of(scenario)
            if cell not in cell_entries:
                cell_entries[cell] = []
                cell_order.append(cell)
            cell_entries[cell].append((scenario, result))
        chunk_sets.append(ResultSet(entries))
        merged_chunks += 1
    merged = ResultSet.merge(*chunk_sets) if chunk_sets else ResultSet([])
    cells = []
    for cell in cell_order:
        subset = ResultSet(cell_entries[cell])
        protocol, adversary, n, t = cell
        cells.append(
            CampaignCell(
                protocol=protocol,
                adversary=adversary,
                n=n,
                t=t,
                runs=len(subset),
                worst=subset.worst(),
                mean=subset.mean(),
                all_completed=subset.all_completed,
            )
        )
    return CampaignReport(
        spec=spec,
        result_set=merged,
        cells=cells,
        chunks_merged=merged_chunks,
        complete=merged_chunks == spec.total_chunks,
        execution=dict(execution or {}),
    )


__all__ = ["PIN_MEASURES", "CampaignCell", "CampaignReport", "build_report"]
