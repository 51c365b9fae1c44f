"""The naive knowledge-spreading algorithm of Section 3.

"The most naive implementation of this idea is the following: Process 0
begins by performing unit 1 of work and reporting this to process 1.
It then performs unit 2 and reports units 1 and 2 to process 2, and so
on, telling process i mod t about units 1 through i. [...] If process 0
crashes, we want the most knowledgeable alive process [...] to become
active.  [...] The most knowledgeable process then continues to perform
work, always informing the least knowledgeable process."

No fault detection is performed, which is exactly its downfall: "The
problem with this naive algorithm is that it requires O(n + t^2) work
and O(n + t^2) messages in the worst case" - each taker-over blindly
re-informs (and re-does the work last reported to) a chain of already
dead processes.  Protocol C exists to defeat this scenario; this module
implements the naive algorithm so the Theta(t^2) blow-up is measurable
(experiment E15) next to Protocol C's O(n + t log t).

Takeover discipline: deadlines keyed on the reduced view m (= units
known done; there is no fault knowledge to count), of the same shape as
Protocol C's, plus a pid-staggered tie-break.  Reports carry strictly
increasing m, so among live processes views are distinct except in the
know-nothing state, where the paper wants the highest pid to move first
- both properties the tie-break preserves.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.deadlines import ProtocolCDeadlines
from repro.errors import ConfigurationError
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.process import Process


class NaiveSpreadingProcess(Process):
    """One process of the naive knowledge-spreading algorithm."""

    def __init__(self, pid: int, t: int, n: int, *, epoch: int = 0, slack: int = 2):
        super().__init__(pid, t)
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n}")
        self.n = n
        self.epoch = epoch
        self.deadlines = ProtocolCDeadlines(n=n, t=t, slack=slack)
        self.work_next = 1          # next unit not known to be done
        self.last_informed = pid    # cyclic report pointer (own view)
        self._active = False
        self._script: Optional[Iterator[Tuple[Optional[int], Optional[Broadcast]]]] = None
        self._deadline = epoch if pid == 0 else epoch + self._delay(0)

    # ---- deadlines -------------------------------------------------------

    def _delay(self, m: int) -> int:
        """Waiting time after reaching reduced view ``m``.

        Protocol C's ``D`` plus a pid tie-break smaller than one level
        gap, so equal views activate highest-pid-first and distinct
        views activate strictly most-knowledgeable-first.
        """
        base = self.deadlines.D(self.pid, min(m, self.deadlines.max_reduced_view))
        if m >= 1:
            return base + (self.t - 1 - self.pid) * self.deadlines.K
        return base

    # ---- scheduling ---------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._active and not self.retired

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        if self._active:
            return 0
        return self._deadline

    # ---- rounds ----------------------------------------------------------------

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        for envelope in inbox:
            if envelope.kind is not MessageKind.ORDINARY:
                continue
            _, work_next, last_informed = envelope.payload
            if work_next > self.work_next:
                self.work_next = work_next
                self.last_informed = last_informed
            if not self._active:
                m = self.work_next - 1
                self._deadline = envelope.sent_round + self._delay(m)
        if not self._active and round_number >= self._deadline:
            self._active = True
            self._script = self._active_script()
        if self._active:
            assert self._script is not None
            try:
                work, sends = next(self._script)
            except StopIteration:
                return Action.halting()
            return Action(work=work, sends=sends)
        return Action.idle()

    def _active_script(self) -> Iterator[Tuple[Optional[int], Optional[Broadcast]]]:
        while self.work_next <= self.n:
            unit = self.work_next
            yield unit, None
            self.work_next = unit + 1
            # Report to the cyclically next process - alive or not: the
            # naive algorithm has no notion of detected failures.
            target = (self.last_informed + 1) % self.t
            if target == self.pid:
                target = (target + 1) % self.t
            self.last_informed = target
            if self.t > 1:
                payload = ("naive", self.work_next, self.last_informed)
                yield None, Broadcast((target,), payload, MessageKind.ORDINARY)


def build_naive_spreading(
    n: int, t: int, *, epoch: int = 0, slack: int = 2
) -> List[NaiveSpreadingProcess]:
    return [
        NaiveSpreadingProcess(pid, t, n, epoch=epoch, slack=slack)
        for pid in range(t)
    ]
