"""Crash directives: when and how a process fails.

The paper's crash model is fail-stop with one refinement that the
protocols' analyses lean on heavily: a process may crash *during* a
broadcast, in which case an arbitrary subset of the recipients receive
the message.  A directive therefore specifies both the round of the crash
and the phase within the round:

* ``BEFORE_ACTION`` - the process does nothing this round (it may also
  have been scheduled for an earlier, idle round; a late application is
  observationally identical because an idle process emits nothing).
* ``AFTER_WORK`` - the work unit of the round counts, no message leaves.
  This realises "a process can fail immediately after performing a unit
  of work, before reporting that unit to any other process", the scenario
  behind the paper's `n + t - 1` work lower bound.
* ``DURING_SEND`` - work counts and an adversary-chosen subset of the
  round's broadcast is delivered.
* ``AFTER_ACTION`` - the whole round takes effect, then the process dies.

Crash-recover extension
-----------------------

The paper's model is fail-stop, but the repo's fault universe also
covers *repairable* faults: a directive with ``recover_after=k`` crashes
the victim as usual and schedules it to rejoin ``k`` rounds later with
**stale state** - whatever its last checkpoint held, not its crash-instant
state.  Only recovery-aware protocols (``Process.supports_recovery``)
accept such directives; the engine raises :class:`AdversaryError` for
any other victim, because a protocol with no checkpoint discipline has
no well-defined state to rejoin with.

Repair-time distributions
-------------------------

Real repairs are not a constant: a reboot takes a few rounds, a
re-image takes many.  The adversary-facing ``repair_delay`` /
``recover_after`` parameters therefore accept a *repair spec* - a fixed
integer, or a distribution drawn once per directive from the
adversary's own seeded RNG (so schedules stay deterministic functions
of the scenario seed)::

    8                   fixed: rejoin 8 rounds later
    "uniform:2,6"       uniform integer delay in [2, 6]
    "exp:mean=3"        exponential with the given mean, rounded,
                        floored at 1
    {"kind": "uniform", "low": 2, "high": 6}     (dict forms)
    {"kind": "exp", "mean": 3.0}

Inside an adversary *string* spec, where commas separate arguments,
spell the uniform form ``uniform:2-6`` or ``uniform:2..6``.
:func:`normalize_repair_spec` canonicalises and validates (errors name
the offending value); :func:`draw_repair_delay` performs the per-
directive draw.  See ``docs/faults.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Optional, Union

from repro.sim.actions import Action, Broadcast
from repro.sim.rng import choose_subset
from repro.sim.specs import SpecFamily, SpecKind, integer, number, ordered

#: What repair-delay parameters accept: a fixed round count, a
#: distribution grammar string, or a canonical distribution dict.
RepairSpec = Union[int, str, Dict[str, object]]

_BOUND = integer(minimum=1)

REPAIR = SpecFamily(
    "repair",
    (
        SpecKind(
            "uniform",
            ("low", "high"),
            {"low": _BOUND, "high": _BOUND},
            required=("low", "high"),
            summary="a uniform integer delay in [LO, HI], spelled 'uniform:LO,HI' "
            "(or LO-HI / LO..HI inside an adversary string spec)",
            check=ordered("low", "high"),
        ),
        SpecKind(
            "exp",
            ("mean",),
            {"mean": number(positive=True)},
            required=("mean",),
            summary="exponential with the given mean, rounded, floored at 1: 'exp:mean=M'",
        ),
    ),
    scalar=_BOUND,
)

#: ``normalize_repair_spec(spec, *, what=None)``: a fixed int or a
#: validated distribution dict; errors name ``what`` and the value.
normalize_repair_spec = REPAIR.normalize


def draw_repair_delay(spec, rng: random.Random) -> int:
    """One repair delay from a normalised spec.

    A fixed int passes through **without touching the RNG**, so
    integer-delay scenarios keep their historical draw order; a
    distribution consumes exactly one draw.  Exponential delays round to
    the nearest integer and floor at 1 (a repair takes at least a
    round).
    """
    if isinstance(spec, int):
        return spec
    if spec["kind"] == "uniform":
        return rng.randint(spec["low"], spec["high"])
    return max(1, int(rng.expovariate(1.0 / spec["mean"]) + 0.5))


class CrashPhase(Enum):
    BEFORE_ACTION = "before_action"
    AFTER_WORK = "after_work"
    DURING_SEND = "during_send"
    AFTER_ACTION = "after_action"


@dataclass(frozen=True)
class CrashDirective:
    """Instruction to crash one process.

    Attributes:
        pid: the victim.
        at_round: first round at which the crash takes effect.  If the
            victim is idle at ``at_round`` the crash applies before its
            next action, which is observationally equivalent.
        phase: where within the action round the crash lands.
        keep: for ``DURING_SEND``: either an explicit frozenset of
            destination pids whose copies are delivered, or ``None``
            meaning "uniformly random subset" (size drawn by the engine).
        recover_after: if set, the victim rejoins that many rounds after
            the crash is applied, restored to its last checkpoint (see
            module docstring).  Requires ``Process.supports_recovery``.
    """

    pid: int
    at_round: int
    phase: CrashPhase = CrashPhase.BEFORE_ACTION
    keep: Optional[FrozenSet[int]] = None
    recover_after: Optional[int] = None

    def censor(self, action: Action, rng: random.Random) -> Action:
        """Return the part of ``action`` that survives this crash."""
        if self.phase is CrashPhase.BEFORE_ACTION:
            return Action.idle()
        if self.phase is CrashPhase.AFTER_WORK:
            return Action(work=action.work)
        if self.phase is CrashPhase.DURING_SEND:
            return Action(work=action.work, sends=self._surviving_sends(action.sends, rng))
        # AFTER_ACTION: everything (including a halt, though a crash makes
        # the halt moot - the process retires either way).
        return action

    def _surviving_sends(
        self, sends: Optional[Broadcast], rng: random.Random
    ) -> Optional[Broadcast]:
        # Partial delivery is *subset selection* on the recipients bitset:
        # the shared payload is never re-allocated per copy.  A random
        # subset costs one randrange over the broadcast's size and one
        # sample of its (ascending) recipients.
        if not sends:
            return sends
        if self.keep is not None:
            return sends.restrict(self.keep)
        dsts = sends.dsts()
        size = rng.randrange(len(dsts) + 1)
        return sends.restrict(choose_subset(rng, dsts, size))
