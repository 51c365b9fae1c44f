"""Optional structured event trace for simulations.

Traces are off by default (they cost memory proportional to the number
of events) and are used by tests that assert fine-grained ordering
properties, and by examples that want to narrate an execution.

Hot-path contract: the engine checks :attr:`Trace.enabled` *before*
building the per-event detail tuple on its per-send and per-work paths,
so a disabled trace costs one attribute read per batch rather than a
tuple allocation per message.  :meth:`emit` still guards internally for
the rare event kinds (crash/halt/activate) that skip the pre-check.

Send events stay *per copy* although a ``Broadcast`` is committed
un-expanded: an enabled trace emits one ``("send", src, (kind, dst,
payload))`` event per recipient in ascending pid order, so traces diff
cleanly against per-copy oracles
(``tests/test_broadcast_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class TraceEvent:
    round: int
    kind: str            # "work" | "send" | "crash" | "halt" | "activate"
    pid: int
    detail: Any = None

    def __str__(self) -> str:
        return f"[r{self.round:>6}] p{self.pid:<3} {self.kind:<9} {self.detail}"


class Trace:
    """Append-only event log with small query helpers."""

    __slots__ = ("enabled", "events")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: List[TraceEvent] = []

    def emit(self, round_number: int, kind: str, pid: int, detail: Any = None) -> None:
        if self.enabled:
            self.events.append(TraceEvent(round_number, kind, pid, detail))

    # ---- queries ---------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def for_pid(self, pid: int) -> List[TraceEvent]:
        return [event for event in self.events if event.pid == pid]

    def activations(self) -> List[Tuple[int, int]]:
        """(round, pid) pairs of processes taking over the active role."""
        return [(event.round, event.pid) for event in self.of_kind("activate")]

    def first(self, kind: str) -> Optional[TraceEvent]:
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def render(self, limit: Optional[int] = None) -> str:
        chosen = self.events if limit is None else self.events[:limit]
        lines = [str(event) for event in chosen]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        return "\n".join(lines)
