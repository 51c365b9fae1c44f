"""The paper's straw-man solutions (Section 1) and the single-level
checkpointing scheme whose failure motivates Protocol A (Section 2).

* :class:`ReplicateProcess` - "have each process perform every unit of
  work": no messages, worst-case ``t n`` work, ``n`` rounds.
* :class:`NaiveCheckpointProcess` - one active process checkpoints to
  *all* processes every ``interval`` units.  With ``interval = 1`` this
  is the paper's second straw man (``n + t - 1`` work but almost ``t n``
  messages); sweeping ``interval = n/k`` over ``k`` reproduces the
  Section 2 argument that no single checkpoint frequency achieves both
  ``O(n + t)`` work and ``O(t sqrt(t))`` messages - the gap Protocol A's
  two-level scheme closes.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.process import Process


class ReplicateProcess(Process):
    """Every process performs every unit; nobody communicates."""

    def __init__(self, pid: int, t: int, n: int):
        super().__init__(pid, t)
        self.n = n
        self._next_unit = 1

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        return 0  # work every round until done

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        if self._next_unit > self.n:
            return Action.halting()
        unit = self._next_unit
        self._next_unit += 1
        return Action(work=unit, halt=self._next_unit > self.n)


class NaiveCheckpointProcess(Process):
    """Single active worker, checkpointing to everyone every ``interval``
    units; takeover by fixed deadline in process order.

    The active process broadcasts ``("ckpt", u)`` to all other processes
    after every ``interval``-th unit and after unit ``n``; an inactive
    process that hears ``("ckpt", n)`` terminates, and otherwise takes
    over at its deadline, resuming after the last checkpointed unit it
    heard about.
    """

    def __init__(self, pid: int, t: int, n: int, *, interval: int = 1, slack: int = 2):
        super().__init__(pid, t)
        if interval < 1:
            raise ConfigurationError(f"checkpoint interval must be >= 1, got {interval}")
        self.n = n
        self.interval = interval
        # Active budget: n work rounds + one broadcast round per checkpoint.
        checkpoints = -(-n // interval) if n else 0
        self._budget = n + checkpoints + slack
        self._last_heard_unit = 0
        self._active = False
        self._script: Optional[Iterator[Tuple[Optional[int], Optional[Broadcast]]]] = None

    # ---- scheduling ----------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._active and not self.retired

    def deadline(self) -> int:
        return self.pid * self._budget

    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        return 0 if self._active else self.deadline()

    # ---- rounds ----------------------------------------------------------

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        done = False
        for envelope in inbox:
            if envelope.kind is MessageKind.CONTROL and envelope.payload[0] == "ckpt":
                self._last_heard_unit = max(self._last_heard_unit, envelope.payload[1])
                done = done or envelope.payload[1] >= self.n
        if done and not self._active:
            return Action.halting()
        if not self._active and round_number >= self.deadline():
            self._active = True
            self._script = self._worker_script()
        if self._active:
            assert self._script is not None
            try:
                work, sends = next(self._script)
            except StopIteration:
                return Action.halting()
            return Action(work=work, sends=sends)
        return Action.idle()

    def _worker_script(self) -> Iterator[Tuple[Optional[int], Optional[Broadcast]]]:
        others = [pid for pid in range(self.t) if pid != self.pid]
        start = self._last_heard_unit + 1
        if self.n == 0 or start > self.n:
            # Nothing left (or nothing at all): announce completion so the
            # others can retire without taking over.
            if others:
                yield None, Broadcast(others, ("ckpt", self.n), MessageKind.CONTROL)
            return
        for unit in range(start, self.n + 1):
            yield unit, None
            if unit % self.interval == 0 or unit == self.n:
                if others:
                    yield None, Broadcast(others, ("ckpt", unit), MessageKind.CONTROL)


def build_replicate(n: int, t: int) -> List[ReplicateProcess]:
    return [ReplicateProcess(pid, t, n) for pid in range(t)]


def build_naive_checkpoint(
    n: int, t: int, *, interval: int = 1, slack: int = 2
) -> List[NaiveCheckpointProcess]:
    return [
        NaiveCheckpointProcess(pid, t, n, interval=interval, slack=slack)
        for pid in range(t)
    ]
