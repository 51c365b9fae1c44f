"""Dynamic-workload Protocol D (Section 4 remark; U.S. Patent 5,513,354).

"It is not too hard to modify our last algorithm to deal with a more
realistic scenario, where work is continually coming in to different
sites of the system, and is not initially common knowledge.  [...]
Essentially, the idea is to run Eventual Byzantine Agreement
periodically (where the length of the period depends on the size of the
work load)."

This module implements that modification.  Work units *arrive* at
individual sites over time (an arrival schedule maps rounds to
(site, unit) pairs); nobody initially knows the whole pool.  Execution
proceeds in fixed-length cycles aligned on global round numbers:

* each cycle opens with an agreement sub-phase - the same early-stopping
  exchange as Protocol D, except that views now carry (known units,
  completed units, live set) and *known* units are unioned (new arrivals
  propagate) while completed units are unioned and subtracted;
* the rest of the cycle is a work sub-phase on the agreed outstanding
  pool, split by rank among the agreed-live processes;
* units assigned to a process that crashes mid-cycle simply remain
  outstanding (its completion report never merges) and are reassigned in
  the next cycle.

Processes halt at the first cycle boundary where agreement shows no
outstanding and no future arrivals remain (the arrival horizon is a
simulation parameter - a real deployment would run forever).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.agreement_fold import AgreementLayout, AgreementProcess, work_share
from repro.errors import ConfigurationError
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.bitset import FrozenIntBitset, IntBitset

Arrival = Tuple[int, int, int]  # (round, site pid, unit)

_AGREE = "agree"
_WORK = "work"
_AGREEMENT = MessageKind.AGREEMENT


class ArrivalSchedule:
    """Immutable arrival plan shared by all processes of one run."""

    def __init__(self, arrivals: Iterable[Arrival]):
        self.arrivals: List[Arrival] = sorted(arrivals)
        seen: Set[int] = set()
        for _, _, unit in self.arrivals:
            if unit in seen:
                raise ConfigurationError(f"unit {unit} arrives twice")
            seen.add(unit)
        self.units: FrozenSet[int] = frozenset(seen)
        self.horizon: int = max((rnd for rnd, _, _ in self.arrivals), default=0)
        # Indexed by site once: a per-site scan of every arrival would
        # cost O(t x arrivals) to build one run's processes.
        self._by_site: Dict[int, List[Tuple[int, int]]] = {}
        for rnd, site, unit in self.arrivals:
            self._by_site.setdefault(site, []).append((rnd, unit))

    def at_site(self, pid: int) -> List[Tuple[int, int]]:
        """(round, unit) pairs arriving at ``pid``, in (round, unit) order."""
        return list(self._by_site.get(pid, ()))

    @property
    def total_units(self) -> int:
        return len(self.units)


class DynamicProtocolDProcess(AgreementProcess):
    """One site of the dynamic-workload variant."""

    #: Payload ``(cycle_start, known, done, live, flag)``: every view is
    #: unioned (new arrivals and completions propagate).
    layout = AgreementLayout(
        "protocol-d-dynamic",
        4,
        ((1, "known", False), (2, "done", False), (3, "live", False)),
    )

    def __init__(
        self,
        pid: int,
        t: int,
        schedule: ArrivalSchedule,
        *,
        cycle_length: int = 16,
    ):
        super().__init__(pid, t)
        if cycle_length < 4:
            raise ConfigurationError(
                f"cycle must fit an agreement exchange; got {cycle_length}"
            )
        self.schedule = schedule
        self.cycle_length = cycle_length
        self._pending_arrivals = deque(schedule.at_site(pid))
        self.known: IntBitset = IntBitset()
        #: Arrivals observed since the current agreement began.  They are
        #: folded into ``known`` only when the *next* agreement starts:
        #: mid-agreement, ``known`` is shared protocol state (adopting a
        #: decider's view replaces it), so a unit absorbed directly could
        #: be silently erased - and this site may be its only knower.
        self._arrived_buffer: IntBitset = IntBitset()
        self.done: IntBitset = IntBitset()
        self.live: IntBitset = IntBitset.from_range(0, t)
        self.state = _AGREE
        self._cycle_start = 0
        self._first_cycle = True
        # Agreement sub-state (pipelined exchange, as in Protocol D).
        self._U = self.live.to_int()
        self._u_snapshot = 0
        self._round_var = 0
        self._agree_done = False
        self._broadcast_pending = True
        # Work sub-state.
        self._share: List[int] = []
        self._share_index = 0

    # ---- arrivals -----------------------------------------------------

    def _absorb_arrivals(self, round_number: int) -> None:
        while self._pending_arrivals and self._pending_arrivals[0][0] <= round_number:
            _, unit = self._pending_arrivals.popleft()
            self._arrived_buffer.add(unit)

    # ---- scheduling ------------------------------------------------------

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.crashed or self.halted:  # ``retired``, read once per step
            return None
        if self.state == _AGREE:
            return 0  # agreement acts every round
        if self._share_index < len(self._share):
            return 0
        cycle_end = self._cycle_start + self.cycle_length
        if self._pending_arrivals:
            return min(cycle_end, self._pending_arrivals[0][0])
        return cycle_end

    # ---- round dispatch ----------------------------------------------------

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        self._absorb_arrivals(round_number)
        if self.state == _WORK and round_number >= self._cycle_start + self.cycle_length:
            self._enter_agree(round_number)
        if self.state == _WORK:
            return self._work_round()
        if self._broadcast_pending:
            # First round of the cycle's agreement: announce buffered
            # arrivals, then broadcast.
            self.known |= self._arrived_buffer
            self._arrived_buffer.clear()
            self._broadcast_pending = False
            self._u_snapshot = self._U
            return Action(sends=self._agree_broadcast(False))
        # Same fold as Protocol D's (see repro.core.agreement_fold); a
        # laggard's stale cycle fails the key filter, arrivals re-sync it.
        return self._agree_round(round_number, [inbox], self._cycle_start)

    # ---- agreement sub-phase --------------------------------------------------

    def _enter_agree(self, round_number: int) -> None:
        self.state = _AGREE
        self._cycle_start = round_number
        self._U = self.live.to_int()
        self.live = IntBitset.singleton(self.pid)
        self._agree_done = False
        self._round_var = 1 if self._first_cycle else 0
        self._first_cycle = False
        self._broadcast_pending = True

    def _payload(self, done_flag: bool) -> tuple:
        return (
            self._cycle_start,
            self.known.freeze(),
            self.done.freeze(),
            self.live.freeze(),
            done_flag,
        )

    def _agree_broadcast(self, done_flag: bool) -> Broadcast:
        recipients = FrozenIntBitset(self._U & ~(1 << self.pid))
        return Broadcast(recipients, self._payload(done_flag), _AGREEMENT)

    def _finish_agreement(self, round_number: int, sends: Broadcast, store) -> Action:
        outstanding = self.known - self.done
        no_more_arrivals = round_number >= self.schedule.horizon
        if (
            not outstanding
            and no_more_arrivals
            and not self._pending_arrivals
            and not self._arrived_buffer
        ):
            return Action(sends=sends, halt=True)
        # Rank-sliced share, as in Protocol D's _setup_work_phase.
        team = len(self.live)
        per_process = math.ceil(len(outstanding) / team) if team else 0
        if per_process == 0 or self.pid not in self.live:
            self._share = []
        else:
            self._share = work_share(
                store, outstanding, self.live, self.pid, per_process, round_number
            )
        self._share_index = 0
        self.state = _WORK
        return Action(sends=sends)

    # ---- work sub-phase ----------------------------------------------------------

    def _work_round(self) -> Action:
        if self._share_index < len(self._share):
            unit = self._share[self._share_index]
            self._share_index += 1
            self.done.add(unit)
            return Action(work=unit)
        return Action.idle()


def build_dynamic_protocol_d(
    t: int,
    schedule: ArrivalSchedule,
    *,
    cycle_length: int = 16,
) -> List[DynamicProtocolDProcess]:
    return [
        DynamicProtocolDProcess(pid, t, schedule, cycle_length=cycle_length)
        for pid in range(t)
    ]


def uniform_arrivals(
    n: int, t: int, *, every: int = 3, start: int = 0
) -> ArrivalSchedule:
    """A convenient schedule: unit ``u`` arrives at site ``u mod t`` at
    round ``start + (u - 1) * every``."""
    return ArrivalSchedule(
        (start + (unit - 1) * every, (unit - 1) % t, unit) for unit in range(1, n + 1)
    )


def build_dynamic_protocol_d_from_spec(
    n: int,
    t: int,
    *,
    schedule=None,
    cycle_length: int = 16,
) -> List[DynamicProtocolDProcess]:
    """Registry-compatible builder: ``(n, t)`` plus a declarative
    *schedule spec* (see :mod:`repro.sim.specs`) instead of a live
    :class:`ArrivalSchedule`.

    This is what makes the dynamic variant addressable as ``D-dynamic``
    from :class:`repro.api.Scenario`, the CLI, sweeps and suites::

        Scenario(protocol="D-dynamic", n=12, t=4,
                 options={"schedule": "arrivals:0x8,3x4"}).run()

    ``schedule=None`` means the uniform default (one unit every third
    round, sites round-robin).
    """
    from repro.sim.specs import schedule_from_spec

    return build_dynamic_protocol_d(
        t, schedule_from_spec(n, t, schedule), cycle_length=cycle_length
    )
