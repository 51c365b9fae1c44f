"""Base class for simulated processes.

A process is a state machine driven by the engine.  The engine calls
:meth:`Process.on_round` whenever the process is *due*: it has undelivered
mail, or its self-declared wake round has arrived.  Between due rounds the
process is quiescent by contract, which is what allows the engine to
fast-forward over the enormous idle stretches that Protocol C's
exponential deadlines create.

Scheduling contract
-------------------

The engine schedules processes through an event index: it queries
:meth:`wake_round` once after every event that can change the answer
(construction, each :meth:`on_round` call, and the crashes, halts and
rejoins it applies) and caches the result rather than polling every
process every round.  Two obligations follow for implementations:

* ``wake_round()`` must be a pure function of process state - calling it
  twice without an intervening state change must return the same value;
* state that influences ``wake_round()`` may only change inside
  ``on_round`` or the ``mark_*`` lifecycle hooks, which only the engine
  calls during a run.

Every protocol in this repository satisfies the contract naturally: their
deadlines and scripts advance only inside ``on_round``.  A process keeps
no reference to its engine.

Crash-recover lifecycle
-----------------------

A crash is permanent by default.  Protocols that maintain a checkpoint
from which a crashed process can meaningfully rejoin opt in by setting
the class attribute :attr:`Process.supports_recovery` to ``True`` and
overriding :meth:`Process.on_recover`, which must restore the process to
its *stale* (last-checkpoint) state - never its crash-instant state.
The engine drives the rejoin through :meth:`Process.mark_recovered` when
a crash directive carried ``recover_after``; it refuses (with
``AdversaryError``) to recover a process whose class does not opt in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.sim.actions import Action, Envelope


class Process(ABC):
    """One of the ``t`` crash-prone processes of the paper's model."""

    def __init__(self, pid: int, t: int):
        self.pid = pid
        self.t = t
        self.crashed = False
        self.crash_round: Optional[int] = None
        self.halted = False
        self.halt_round: Optional[int] = None

    # ---- lifecycle -------------------------------------------------

    @property
    def retired(self) -> bool:
        """Crashed or terminated - the paper's notion of a retired process."""
        return self.crashed or self.halted

    @property
    def is_active(self) -> bool:
        """Whether this process currently holds the single "active" role.

        Only meaningful for Protocols A, B and C, where the paper proves
        at most one process is active at any time; the engine's strict
        mode asserts exactly this.  Protocols without the notion return
        False.
        """
        return False

    def mark_crashed(self, round_number: int) -> None:
        self.crashed = True
        if self.crash_round is None:
            self.crash_round = round_number

    def mark_halted(self, round_number: int) -> None:
        self.halted = True
        if self.halt_round is None:
            self.halt_round = round_number

    #: Whether this protocol keeps a checkpoint that makes crash-recover
    #: directives meaningful.  Recovery-aware subclasses set this to True
    #: and override :meth:`on_recover`.
    supports_recovery = False

    def mark_recovered(self, round_number: int) -> None:
        """Rejoin after a ``recover_after`` crash (engine-driven).

        Clears the crash flags and asks the protocol to restore its last
        checkpoint via :meth:`on_recover`.
        """
        self.crashed = False
        self.crash_round = None
        self.on_recover(round_number)

    def on_recover(self, round_number: int) -> None:
        """Restore this process to its last checkpoint.

        Called by :meth:`mark_recovered` exactly once per rejoin, with the
        round at which the process comes back to life.  Implementations
        must rebuild *stale* state (the checkpoint, not the crash-instant
        state) and leave ``wake_round()`` consistent with it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support crash-recover faults; "
            "recovery-aware protocols must set supports_recovery = True and "
            "override on_recover()"
        )

    # ---- scheduling ------------------------------------------------

    @abstractmethod
    def wake_round(self) -> Optional[int]:
        """Next round at which this process will act *without* receiving
        any message, or ``None`` if it only reacts to messages.

        Returning a round in the past is allowed and means "as soon as
        possible"; the engine treats it as the next processed round.
        """

    @abstractmethod
    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        """Perform one round.

        ``inbox`` contains every envelope stamped before ``round_number``
        that has not been delivered yet (the engine guarantees stamps are
        strictly smaller than ``round_number``).  The returned action's
        sends are stamped ``round_number``.
        """

    # ---- debugging -------------------------------------------------

    def state_label(self) -> str:
        """Short human-readable state tag for traces."""
        if self.crashed:
            return "crashed"
        if self.halted:
            return "halted"
        return "alive"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} pid={self.pid} {self.state_label()}>"
