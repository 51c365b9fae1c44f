"""Adversary strategies.

The paper's theorems are worst-case statements over all crash patterns;
its proofs motivate several concrete "hard" schedules.  This module
implements those plus general-purpose scripted and randomised
adversaries.  All adversaries are deterministic functions of their
configuration and the engine's seed.

Declarative specs
-----------------

Every adversary is also constructible from a *spec* - a string or a
JSON-compatible dict - via :func:`adversary_from_spec`, which is what
the :class:`repro.api.Scenario` layer, the CLI's ``--adversary`` flag
and the sweep batteries use::

    KIND                      e.g.  "kill-active"
    KIND:ARG,ARG,...          e.g.  "random:5,max_action_index=25"
    {"kind": KIND, <param>: ...}

The kind table below (:data:`ADVERSARY`) declares each kind's
parameters and their coercers; the grammar itself - tokenizer,
coercion, canonical form - is :mod:`repro.sim.specs`.  The dict form
covers everything the constructors do (``fixed-schedule`` directives,
``compose`` parts), and the constructors accept the canonical values
(crash phases as their string values).  See ``docs/api.md`` for the
grammar table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.actions import Action
from repro.sim.crashes import (
    CrashDirective,
    CrashPhase,
    RepairSpec,
    draw_repair_delay,
    normalize_repair_spec,
)
from repro.sim.engine import Adversary, Engine
from repro.sim.specs import (
    SpecFamily,
    SpecKind,
    boolean,
    choice,
    integer,
    list_of,
    many,
    number,
    pid_groups,
    pids,
    record,
    tuples,
)


class NoFailures(Adversary):
    """The failure-free execution (the paper's common case for Protocol D)."""


class FixedSchedule(Adversary):
    """Crash exactly the given directives, each at its scheduled round.

    Directives whose round falls in a quiescent stretch are applied at the
    victim's next action, which is observationally identical.
    """

    def __init__(self, directives: Iterable[CrashDirective]):
        self.pending: List[CrashDirective] = sorted(
            directives, key=lambda d: (d.at_round, d.pid)
        )

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        due = [d for d in self.pending if d.at_round <= round_number]
        if due:
            self.pending = [d for d in self.pending if d.at_round > round_number]
        return due


class RandomCrashes(Adversary):
    """Crash ``count`` random victims at random action opportunities.

    Each victim is assigned a countdown of *observed actions*: it crashes
    on its ``k``-th action after the run starts (``k`` uniform in
    ``1..max_action_index``), with a random crash phase.  Expressing the
    schedule in actions rather than absolute rounds keeps the adversary
    meaningful for protocols whose executions are mostly quiescent
    (Protocol C) as well as for dense ones (Protocol D).
    """

    def __init__(
        self,
        count: int,
        *,
        max_action_index: int = 40,
        phases: Sequence[CrashPhase] = tuple(CrashPhase),
        victims: Optional[Sequence[int]] = None,
    ):
        if count < 0:
            raise ConfigurationError(f"crash count must be non-negative, got {count!r}")
        self.count = count
        self.max_action_index = max(1, max_action_index)
        self.phases = tuple(CrashPhase(phase) for phase in phases)
        self.explicit_victims = list(victims) if victims is not None else None
        self._countdown: Dict[int, int] = {}
        self._armed = False

    def _arm(self, engine: Engine) -> None:
        population = (
            self.explicit_victims
            if self.explicit_victims is not None
            else list(range(engine.t))
        )
        budget = min(self.count, max(0, engine.t - 1), len(population))
        victims = self.rng.sample(population, budget)
        for victim in victims:
            self._countdown[victim] = self.rng.randint(1, self.max_action_index)
        self._armed = True

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        if not self._armed:
            self._arm(engine)
        directives = []
        for pid in list(actions):
            if pid not in self._countdown:
                continue
            self._countdown[pid] -= 1
            if self._countdown[pid] <= 0:
                del self._countdown[pid]
                directives.append(
                    CrashDirective(
                        pid=pid,
                        at_round=round_number,
                        phase=self.rng.choice(self.phases),
                    )
                )
        return directives


class KillActive(Adversary):
    """Crash the active process after it performs a few actions.

    This is the adversary implicit in the paper's redo accounting
    (Theorem 2.3): each takeover forces the maximal amount of repeated
    work and resent checkpoints.  ``actions_before_kill`` controls how
    long each active process survives after taking over; ``budget`` is
    the number of kills (at most ``t - 1``).
    """

    def __init__(
        self,
        budget: int,
        *,
        actions_before_kill: int = 1,
        phase: CrashPhase = CrashPhase.AFTER_WORK,
    ):
        self.budget = budget
        self.actions_before_kill = max(1, actions_before_kill)
        self.phase = CrashPhase(phase)
        self._current_victim: Optional[int] = None
        self._seen_actions = 0

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        if self.budget <= 0:
            return []
        active = [pid for pid in engine.active_pids() if pid in actions]
        if not active:
            return []
        pid = active[0]
        if pid != self._current_victim:
            self._current_victim = pid
            self._seen_actions = 0
        self._seen_actions += 1
        if self._seen_actions < self.actions_before_kill:
            return []
        if engine.crashed_count >= engine.t - 1:
            return []
        self.budget -= 1
        self._current_victim = None
        return [CrashDirective(pid=pid, at_round=round_number, phase=self.phase)]


class KillBeforeCheckpoint(Adversary):
    """Crash the active process the moment it attempts a broadcast.

    This is the worst case for checkpointing schemes: everything the
    victim performed since its last successful checkpoint is lost (the
    paper's "up to n/k units of work are lost when a process fails").
    Against the single-level checkpointer each kill wastes a full
    checkpoint interval; against Protocols A and B it exercises the
    checkpoint-completion logic of the takeover dispatch.
    """

    def __init__(self, budget: int):
        self.budget = budget

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        if self.budget <= 0:
            return []
        directives = []
        for pid, action in actions.items():
            process = engine.processes[pid]
            if not process.is_active or not action.sends:
                continue
            if engine.crashed_count >= engine.t - 1:
                continue
            if self.budget <= 0:
                break
            self.budget -= 1
            directives.append(
                CrashDirective(
                    pid=pid, at_round=round_number, phase=CrashPhase.BEFORE_ACTION
                )
            )
        return directives


class Cascade(Adversary):
    """The Section 3 lower-bound scenario for naive knowledge spreading.

    Process 0 runs until it has performed ``lead_units`` units and then
    crashes after its work but before reporting; the upper half of the
    process space is dead from the start; thereafter every process that
    becomes active is killed as soon as it has redone ``redo_units``
    units.  Against the naive algorithm this forces ``Theta(t^2)`` work;
    Protocol C's fault detection is designed to defeat exactly this.
    """

    def __init__(
        self,
        *,
        lead_units: int,
        redo_units: int = 1,
        initial_dead: Sequence[int] = (),
        budget: Optional[int] = None,
    ):
        self.lead_units = lead_units
        self.redo_units = max(1, redo_units)
        self.initial_dead = list(initial_dead)
        self.budget = budget
        self._did_initial = False
        self._work_seen: Dict[int, int] = {}

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        directives: List[CrashDirective] = []
        if not self._did_initial:
            self._did_initial = True
            directives.extend(
                CrashDirective(pid=pid, at_round=round_number)
                for pid in self.initial_dead
            )
        for pid, action in actions.items():
            if action.work is None:
                continue
            self._work_seen[pid] = self._work_seen.get(pid, 0) + 1
            threshold = self.lead_units if pid == 0 else self.redo_units
            if self._work_seen[pid] == threshold:
                if self.budget is not None and self.budget <= 0:
                    continue
                if engine.crashed_count >= engine.t - 1:
                    continue
                if self.budget is not None:
                    self.budget -= 1
                directives.append(
                    CrashDirective(
                        pid=pid, at_round=round_number, phase=CrashPhase.AFTER_WORK
                    )
                )
        return directives


@dataclass
class _StaggeredKill:
    pid: int
    after_work_units: int


class StaggeredWorkKills(Adversary):
    """Crash given victims after they have each performed a quota of units.

    Used for Protocol D: killing ``k`` processes during each work phase
    (after they have done part of their share) exercises the agreement
    phase's failure discovery and the work-redistribution path.
    """

    def __init__(self, kills: Iterable[_StaggeredKill]):
        self._quota: Dict[int, int] = {
            kill.pid: kill.after_work_units for kill in kills
        }
        self._done: Dict[int, int] = {}

    @classmethod
    def plan(cls, kills: Iterable[Sequence[int]]) -> "StaggeredWorkKills":
        return cls(_StaggeredKill(pid, units) for pid, units in kills)

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        directives = []
        for pid, action in actions.items():
            if pid not in self._quota or action.work is None:
                continue
            self._done[pid] = self._done.get(pid, 0) + 1
            if self._done[pid] >= self._quota[pid]:
                del self._quota[pid]
                if engine.crashed_count >= engine.t - 1:
                    continue
                directives.append(
                    CrashDirective(
                        pid=pid, at_round=round_number, phase=CrashPhase.AFTER_WORK
                    )
                )
        return directives


class CrashMidBroadcast(Adversary):
    """Crash each victim the first time it sends a batch of at least
    ``min_batch`` messages, delivering a random strict subset.

    Exercises the paper's partial-broadcast semantics, the trickiest part
    of the takeover logic in Protocols A and B.
    """

    def __init__(self, victims: Sequence[int], *, min_batch: int = 2):
        self.victims = set(victims)
        self.min_batch = min_batch

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        directives = []
        for pid, action in actions.items():
            sends = action.sends
            dsts = sends.recipients if sends is not None else ()
            if pid in self.victims and len(dsts) >= self.min_batch:
                if engine.crashed_count >= engine.t - 1:
                    continue
                self.victims.discard(pid)
                # One draw per recipient, in ascending pid order.
                keep = frozenset(dst for dst in dsts if self.rng.random() < 0.5)
                directives.append(
                    CrashDirective(
                        pid=pid,
                        at_round=round_number,
                        phase=CrashPhase.DURING_SEND,
                        keep=keep,
                    )
                )
        return directives


class RecoveringCrashes(Adversary):
    """Crash-recover faults: random victims crash and rejoin later.

    Like :class:`RandomCrashes`, each victim gets a countdown of observed
    actions (uniform in ``1..max_action_index``), but every directive
    carries ``recover_after=repair_delay``: the victim rejoins that many
    rounds later, restored to its last checkpoint.  ``repair_delay`` is a
    *repair spec* - a fixed int, or a ``"uniform:2,6"`` /
    ``"exp:mean=3"`` distribution drawn per directive from this
    adversary's seeded RNG (see :mod:`repro.sim.crashes`).  Only
    recovery-aware protocols (``Process.supports_recovery``) accept such
    directives - the engine rejects the spec on any other protocol.
    With ``repeat=True`` a recovered victim is re-armed with a fresh
    countdown and crashes again, for as long as the run lasts.
    """

    def __init__(
        self,
        count: int,
        *,
        repair_delay: RepairSpec = 8,
        max_action_index: int = 40,
        phases: Sequence[CrashPhase] = tuple(CrashPhase),
        victims: Optional[Sequence[int]] = None,
        repeat: bool = False,
    ):
        if count < 0:
            raise ConfigurationError(f"crash count must be non-negative, got {count!r}")
        self.count = count
        self.repair_delay = normalize_repair_spec(
            repair_delay, what="'repair_delay' for adversary 'crash-recover'"
        )
        self.max_action_index = max(1, max_action_index)
        self.phases = tuple(CrashPhase(phase) for phase in phases)
        self.explicit_victims = list(victims) if victims is not None else None
        self.repeat = repeat
        self._countdown: Dict[int, int] = {}
        self._armed = False

    def _arm(self, engine: Engine) -> None:
        population = (
            self.explicit_victims
            if self.explicit_victims is not None
            else list(range(engine.t))
        )
        budget = min(self.count, max(0, engine.t - 1), len(population))
        for victim in self.rng.sample(population, budget):
            self._countdown[victim] = self.rng.randint(1, self.max_action_index)
        self._armed = True

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        if not self._armed:
            self._arm(engine)
        directives = []
        for pid in list(actions):
            if pid not in self._countdown:
                continue
            self._countdown[pid] -= 1
            if self._countdown[pid] > 0:
                continue
            if engine.crashed_count >= engine.t - 1:
                # Re-check later rather than over-kill; the countdown
                # stays at zero so the victim crashes on its next action.
                self._countdown[pid] = 1
                continue
            directives.append(
                CrashDirective(
                    pid=pid,
                    at_round=round_number,
                    phase=self.rng.choice(self.phases),
                    recover_after=draw_repair_delay(self.repair_delay, self.rng),
                )
            )
            if self.repeat:
                # Fresh countdown: it only ticks once the victim is back
                # (crashed processes take no actions).
                self._countdown[pid] = self.rng.randint(1, self.max_action_index)
            else:
                del self._countdown[pid]
        return directives


class RackFailures(Adversary):
    """Correlated crashes: whole groups ("racks") of pids die together.

    Pids are partitioned into consecutive groups of ``group_size``
    (or taken from an explicit ``groups`` list); ``racks`` of them are
    sampled to fail, each at its own trigger point measured in
    *cumulative observed actions* (uniform in ``1..max_trigger``), so the
    kill lands mid-execution for dense and sparse protocols alike.  Every
    member of a triggered rack gets the same directive; with
    ``recover_after`` set the whole rack rejoins together - correlated
    crash-recover (a repair spec like ``"uniform:2,6"`` is drawn **once
    per rack**, so the rack still rejoins as one).  The last-survivor
    guard is respected by truncating a rack kill rather than
    over-killing.
    """

    def __init__(
        self,
        racks: int,
        *,
        group_size: int = 4,
        groups: Optional[Sequence[Sequence[int]]] = None,
        max_trigger: int = 30,
        phase: CrashPhase = CrashPhase.BEFORE_ACTION,
        recover_after: Optional[RepairSpec] = None,
    ):
        if racks < 0:
            raise ConfigurationError(f"rack count must be non-negative, got {racks!r}")
        if group_size < 1:
            raise ConfigurationError(f"group_size must be >= 1, got {group_size!r}")
        if recover_after is not None:
            recover_after = normalize_repair_spec(
                recover_after, what="'recover_after' for adversary 'rack'"
            )
        self.racks = racks
        self.group_size = group_size
        self.explicit_groups = (
            [list(group) for group in groups] if groups is not None else None
        )
        self.max_trigger = max(1, max_trigger)
        self.phase = CrashPhase(phase)
        self.recover_after = recover_after
        self._triggers: List[Tuple[int, List[int]]] = []  # (threshold, members)
        self._seen_actions = 0
        self._armed = False

    def _arm(self, engine: Engine) -> None:
        if self.explicit_groups is not None:
            groups = self.explicit_groups
        else:
            pids = list(range(engine.t))
            groups = [
                pids[start : start + self.group_size]
                for start in range(0, engine.t, self.group_size)
            ]
        budget = min(self.racks, len(groups))
        chosen = self.rng.sample(range(len(groups)), budget)
        self._triggers = sorted(
            (self.rng.randint(1, self.max_trigger), groups[index])
            for index in sorted(chosen)
        )
        self._armed = True

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        if not self._armed:
            self._arm(engine)
        self._seen_actions += len(actions)
        if not self._triggers or self._triggers[0][0] > self._seen_actions:
            return []
        directives: List[CrashDirective] = []
        projected = engine.crashed_count
        while self._triggers and self._triggers[0][0] <= self._seen_actions:
            _, members = self._triggers.pop(0)
            # One repair draw per rack: every member rejoins together.
            rejoin = (
                draw_repair_delay(self.recover_after, self.rng)
                if self.recover_after is not None
                else None
            )
            for pid in members:
                if not 0 <= pid < engine.t or engine.processes[pid].retired:
                    continue
                if projected >= engine.t - 1:
                    break
                projected += 1
                directives.append(
                    CrashDirective(
                        pid=pid,
                        at_round=round_number,
                        phase=self.phase,
                        recover_after=rejoin,
                    )
                )
        return directives


class NeighbourCascade(Adversary):
    """Cascading crashes: failures spread to ring neighbours.

    Each ``origin`` crashes at the adversary's first opportunity; every
    crash then infects the victim's ring neighbours (``pid +- 1`` mod
    ``t``) independently with probability ``p``, ``hop_delay`` rounds
    later, and those crashes cascade in turn.  ``budget`` caps the total
    number of crashes (origins included); ``recover_after`` turns the
    cascade into a rolling outage where victims rejoin (a repair spec
    like ``"exp:mean=3"`` is drawn per victim).  All coin flips happen
    at infection time in ascending-neighbour order, so the whole cascade
    is a deterministic function of the seed.
    """

    def __init__(
        self,
        origins: Sequence[int],
        *,
        p: float = 0.5,
        hop_delay: int = 1,
        budget: Optional[int] = None,
        phase: CrashPhase = CrashPhase.BEFORE_ACTION,
        recover_after: Optional[RepairSpec] = None,
    ):
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"hop probability must be in [0, 1], got {p!r}")
        if hop_delay < 1:
            raise ConfigurationError(f"hop_delay must be >= 1, got {hop_delay!r}")
        if recover_after is not None:
            recover_after = normalize_repair_spec(
                recover_after,
                what="'recover_after' for adversary 'cascade-neighbours'",
            )
        self.origins = list(origins)
        self.p = p
        self.hop_delay = hop_delay
        self.budget = budget
        self.phase = CrashPhase(phase)
        self.recover_after = recover_after
        self._pending: Dict[int, int] = {}  # pid -> crash round
        self._infected: set = set()
        self._armed = False

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        if not self._armed:
            for origin in self.origins:
                if 0 <= origin < engine.t:
                    self._pending[origin] = round_number
                    self._infected.add(origin)
            self._armed = True
        due = sorted(
            pid for pid, at in self._pending.items() if at <= round_number
        )
        if not due:
            return []
        directives: List[CrashDirective] = []
        projected = engine.crashed_count
        for pid in due:
            del self._pending[pid]
            if engine.processes[pid].retired:
                continue
            if self.budget is not None and self.budget <= 0:
                continue
            if projected >= engine.t - 1:
                continue
            projected += 1
            if self.budget is not None:
                self.budget -= 1
            directives.append(
                CrashDirective(
                    pid=pid,
                    at_round=round_number,
                    phase=self.phase,
                    recover_after=(
                        draw_repair_delay(self.recover_after, self.rng)
                        if self.recover_after is not None
                        else None
                    ),
                )
            )
            for neighbour in sorted(
                {(pid - 1) % engine.t, (pid + 1) % engine.t}
            ):
                if neighbour in self._infected:
                    continue
                if self.rng.random() < self.p:
                    self._infected.add(neighbour)
                    self._pending[neighbour] = round_number + self.hop_delay
        return directives


def compose(*adversaries: Adversary) -> Adversary:
    """Run several adversaries side by side (union of their directives)."""

    class _Composite(Adversary):
        def bind(self, engine: Engine) -> None:
            super().bind(engine)
            for adversary in adversaries:
                adversary.bind(engine)

        def decide(self, round_number, actions, engine):
            directives = []
            for adversary in adversaries:
                directives.extend(adversary.decide(round_number, actions, engine))
            return directives

    return _Composite()


# =====================================================================
# Declarative adversary specs
# =====================================================================

#: What the spec-accepting entry points take: ``None`` (no failures), a
#: grammar string, a JSON-compatible dict, or an already-built instance.
AdversarySpec = Union[None, str, Dict[str, object], Adversary]

_COUNT = integer(minimum=0)
_PHASE = choice(CrashPhase)
_PHASES = many(_PHASE)

_DIRECTIVE = record(
    {
        "pid": integer(),
        "at_round": integer(),
        "phase": _PHASE,
        "keep": pids,
        "recover_after": integer(minimum=1),
    },
    required=("pid",),
    label="fixed-schedule directive",
)


def _fixed_schedule(directives) -> FixedSchedule:
    return FixedSchedule(
        CrashDirective(
            pid=directive["pid"],
            at_round=directive.get("at_round", 0),
            phase=CrashPhase(directive.get("phase", CrashPhase.BEFORE_ACTION)),
            keep=frozenset(directive["keep"]) if "keep" in directive else None,
            recover_after=directive.get("recover_after"),
        )
        for directive in directives
    )


def _compose(parts) -> Adversary:
    live = [adversary_from_spec(part) for part in parts if part is not None]
    return compose(*live) if live else NoFailures()


ADVERSARY = SpecFamily(
    "adversary",
    (
        SpecKind(
            "random",
            ("count",),
            {"count": _COUNT, "max_action_index": integer(), "victims": pids, "phases": _PHASES},
            required=("count",),
            factory=RandomCrashes,
            summary="crash N random victims at random action opportunities",
        ),
        SpecKind(
            "crash-recover",
            ("count",),
            {
                "count": _COUNT,
                "repair_delay": normalize_repair_spec,
                "max_action_index": integer(),
                "victims": pids,
                "phases": _PHASES,
                "repeat": boolean,
            },
            required=("count",),
            factory=RecoveringCrashes,
            summary="random victims crash, then rejoin from their checkpoint after "
            "repair_delay rounds (needs a recovery-aware protocol)",
        ),
        SpecKind(
            "rack",
            ("racks",),
            {
                "racks": _COUNT,
                "group_size": integer(minimum=1),
                "groups": pid_groups,
                "max_trigger": integer(minimum=1),
                "phase": _PHASE,
                "recover_after": normalize_repair_spec,
            },
            required=("racks",),
            factory=RackFailures,
            summary="correlated failures: kill whole pid groups at once; optional "
            "recover_after rejoins the rack",
        ),
        SpecKind(
            "cascade-neighbours",
            ("origins",),
            {
                "origins": pids,
                "p": number(0, 1),
                "hop_delay": integer(minimum=1),
                "budget": integer(),
                "phase": _PHASE,
                "recover_after": normalize_repair_spec,
            },
            required=("origins",),
            factory=NeighbourCascade,
            summary="crashes spread to ring neighbours with per-hop probability p",
        ),
        SpecKind(
            "kill-active",
            ("budget",),
            {"budget": integer(), "actions_before_kill": integer(), "phase": _PHASE},
            required=("budget",),
            factory=KillActive,
            summary="crash each active process after a few actions (Theorem 2.3 redo bound)",
        ),
        SpecKind(
            "kill-before-checkpoint",
            ("budget",),
            {"budget": integer()},
            required=("budget",),
            factory=KillBeforeCheckpoint,
            summary="crash the active process the moment it attempts a broadcast",
        ),
        SpecKind(
            "cascade",
            ("lead_units",),
            {
                "lead_units": integer(),
                "redo_units": integer(),
                "initial_dead": pids,
                "budget": integer(),
            },
            required=("lead_units",),
            factory=Cascade,
            summary="the Section 3 lower-bound schedule for naive knowledge spreading",
        ),
        SpecKind(
            "staggered",
            ("kills",),
            {"kills": tuples(("pid", None), ("units", None))},
            required=("kills",),
            factory=StaggeredWorkKills.plan,
            summary="crash given victims after per-victim work quotas (0x2+3x1)",
        ),
        SpecKind(
            "crash-mid-broadcast",
            ("victims",),
            {"victims": pids, "min_batch": integer()},
            required=("victims",),
            factory=CrashMidBroadcast,
            summary="crash victims mid-broadcast, delivering a random subset",
        ),
        SpecKind(
            "fixed-schedule",
            None,
            {"directives": list_of(_DIRECTIVE)},
            required=("directives",),
            factory=_fixed_schedule,
            summary="crash exactly the given {pid, at_round, phase?, keep?, "
            "recover_after?} directives",
        ),
        SpecKind(
            "compose",
            None,
            {
                "parts": list_of(
                    lambda part, *, what: normalize_adversary_spec(part, what=what),
                    non_empty=True,
                )
            },
            required=("parts",),
            factory=_compose,
            summary="run several adversary specs side by side",
        ),
    ),
    none_aliases=("none", "no-failures", "nofailures"),
    none_summary="the failure-free execution",
    live=Adversary,
)

#: ``normalize_adversary_spec(spec)``: ``None`` or the canonical
#: ``{"kind": ..., <param>: ...}`` dict; live instances are rejected
#: (they cannot round-trip through JSON - pass a spec instead).
normalize_adversary_spec = ADVERSARY.normalize

#: ``adversary_from_spec(spec)``: a *new* adversary per call, so one
#: spec can seed many runs; ``None`` and ``"none"`` build ``None`` (the
#: failure-free run), and a live instance passes through unchanged.
adversary_from_spec = ADVERSARY.build

#: Spec kinds accepted by :func:`adversary_from_spec` (plus ``none``).
available_adversary_kinds = ADVERSARY.known_kinds

#: The grammar table ``repro adversaries`` prints: per kind, its summary
#: and its positional, required and optional parameters.
adversary_kind_info = ADVERSARY.info
