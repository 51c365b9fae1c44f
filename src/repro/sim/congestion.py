"""Per-process per-round congestion budgets.

The paper's model lets a process send arbitrarily many messages per
round; the faulty-congested-clique line of work caps the per-round
*bandwidth* of each process instead.  This module defines that cap as a
declarative capability spec - the same grammar discipline as adversary,
delay and schedule specs - and both engines enforce it:

* **send budget**: a process may emit at most ``send`` point-to-point
  copies per round.  Excess copies are deferred *deterministically* to
  the process's following round(s), in recipient order for broadcasts
  and list order otherwise.  Deferred copies are charged (metrics and
  trace) at their actual departure round, and survive the sender
  crashing in between - they were already handed to the network.
* **receive budget**: a process may absorb at most ``receive`` envelopes
  per round; the rest stay queued, oldest first, and arrive at the next
  round(s).

Spec grammar::

    "budget:4"                     send=4 (receive unlimited)
    "budget:send=4,receive=8"     named form
    {"kind": "budget", "send": 4, "receive": 8}

Budgets are integers >= 1; at least one of ``send``/``receive`` must be
given.  :func:`normalize_congestion_spec` canonicalises to the dict form
(JSON round-trippable, what :class:`repro.api.Scenario` stores), and
:func:`congestion_from_spec` materialises the :class:`CongestionBudget`
both engines consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.sim.specs import SpecFamily, SpecKind, integer

#: What congestion-accepting entry points take: ``None`` (uncongested),
#: a grammar string, a JSON-compatible dict, or the budget itself.
CongestionSpec = Union[None, str, Dict[str, object], "CongestionBudget"]


@dataclass(frozen=True)
class CongestionBudget:
    """Per-process per-round send/receive caps (``None`` = unlimited)."""

    send: Optional[int] = None
    receive: Optional[int] = None

    def to_spec(self) -> Dict[str, object]:
        spec: Dict[str, object] = {"kind": "budget"}
        if self.send is not None:
            spec["send"] = self.send
        if self.receive is not None:
            spec["receive"] = self.receive
        return spec


def _some_budget(params: Dict[str, object], label: str) -> None:
    if not params:
        raise ConfigurationError(
            f"{label} needs at least one of 'send'/'receive' "
            "(e.g. 'budget:send=4,receive=8')"
        )


_BUDGET = integer(minimum=1)

CONGESTION = SpecFamily(
    "congestion",
    (
        SpecKind(
            "budget",
            ("send",),
            {"send": _BUDGET, "receive": _BUDGET},
            factory=CongestionBudget,
            summary="per-process per-round send/receive caps",
            check=_some_budget,
        ),
    ),
    live=CongestionBudget,
)

#: ``normalize_congestion_spec(spec)``: ``{"kind": "budget", ...}`` or
#: ``None``; a live budget serializes through its ``to_spec()``.
normalize_congestion_spec = CONGESTION.normalize

#: ``congestion_from_spec(spec)``: the budget both engines consume
#: (``None`` = uncongested); a live budget passes through.
congestion_from_spec = CONGESTION.build
