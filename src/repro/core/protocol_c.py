"""Protocol C (Section 3): effort O(n + t log t), exponential time.

Unlike Protocols A and B there is no predetermined takeover order: when
the active process fails, the *most knowledgeable* process must take over.
Knowledge is spread maximally thinly - each new unit of (real or
fault-detection) work is reported to the process the active one currently
considers least knowledgeable - and takeover deadlines are keyed on the
*reduced view* ``m`` (units known done + failures known):
``D(i, m) = K (n + t - m) 2^{n+t-1-m}``.  Every ordinary message a process
receives increases its reduced view, so more knowledgeable processes time
out exponentially sooner, and the paper shows (Lemma 3.4) that at most
one process is ever active.

An active process first performs fault detection on its group at every
level, from the innermost (size 2) down to level 1 (everyone), polling
with "are you alive?" messages; each failure found at level ``h < log t``
is itself a unit of work, reported into the level ``h+1`` group.  It then
performs the real work, reporting each unit (or, in the Corollary 3.9
variant, each batch of ``ceil(n/t)`` units) to the level-1 pointer.

Theorem 3.8: at most ``n + 2t`` units of real work, at most
``n + 8 t log t`` messages, and all processes retire by round
``t K (n+t) 2^{n+t}`` (the batched variant: ``O(t log t)`` messages).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.core.deadlines import ProtocolCDeadlines
from repro.core.levels import GroupKey, LevelStructure, cyclic_successor
from repro.core.views import View
from repro.errors import ConfigurationError, InvariantViolation
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.process import Process

#: Script step kinds yielded by the active-process generator.  The
#: harness executes each step so that view updates carry the exact stamp
#: round of the action (the generator itself never needs to know time).
_WORK = "work"
_POLL = "poll"
_REPORT = "report"

ScriptStep = Tuple[str, Any, Any]


class ProtocolCProcess(Process):
    """One process of Protocol C.

    ``attachment`` implements the Section 5 requirement that Protocol C's
    checkpointing (ordinary) messages carry the general's current value
    when the protocol is used for Byzantine agreement: if not ``None`` it
    rides along in every ordinary message and receivers adopt it.
    """

    def __init__(
        self,
        pid: int,
        t: int,
        n: int,
        *,
        batched: bool = False,
        epoch: int = 0,
        slack: int = 2,
    ):
        super().__init__(pid, t)
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n}")
        self.n = n
        self.epoch = epoch
        self.batched = batched
        self.levels = LevelStructure(t)
        self.deadlines = ProtocolCDeadlines(n=n, t=t, batched=batched, slack=slack)
        self.view = View()
        self.view.add_faulty(self.levels.virtual_pids)
        self.attachment: Any = None
        self._active = False
        self._script: Optional[Iterator[ScriptStep]] = None
        self._resume_round = epoch
        self._awaiting_target: Optional[int] = None
        self._reply_seen = False
        self._poll_result = False
        if pid == 0:
            self._deadline = epoch
        else:
            self._deadline = epoch + self.deadlines.D(pid, 0)

    # ---- scheduling -----------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._active and not self.retired

    def reduced_view(self) -> int:
        return self.view.reduced(self.t)

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        if self._active:
            return self._resume_round
        return self._deadline

    # ---- round logic ------------------------------------------------------

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        pollers = self._absorb(inbox, round_number)
        due = self._resume_round if self._active else self._deadline
        if round_number < due:
            if pollers:
                return Action(
                    sends=Broadcast(pollers, ("alive", self.pid), MessageKind.POLL_REPLY)
                )
            return Action.idle()
        if pollers:
            # Only an active process polls, so a poll reaching a process
            # whose own step is due means two active processes.
            raise InvariantViolation(
                f"round {round_number}: p{self.pid} is polled by {pollers} in a "
                "round it steps, but Lemma 3.4 allows one active process at a time"
            )
        if not self._active:
            self._activate()
        return self._step_script(round_number)

    def _absorb(self, inbox: List[Envelope], round_number: int) -> List[int]:
        """Fold the inbox into the view; return the pids that polled."""
        pollers: List[int] = []
        for envelope in inbox:
            if envelope.kind is MessageKind.POLL:
                pollers.append(envelope.src)
            elif envelope.kind is MessageKind.POLL_REPLY:
                if (
                    self._awaiting_target is not None
                    and envelope.src == self._awaiting_target
                ):
                    self._reply_seen = True
            elif envelope.kind is MessageKind.ORDINARY:
                _, view_snapshot, attachment = envelope.payload
                self.view.merge(view_snapshot)
                if attachment is not None:
                    self.attachment = attachment
                if not self._active:
                    m = self.reduced_view()
                    self._deadline = envelope.sent_round + self.deadlines.D(
                        self.pid, m
                    )
        return pollers

    # ---- the active script ----------------------------------------------------

    def _activate(self) -> None:
        self._active = True
        self._script = self._active_script()
        self._resume_round = 0

    def _step_script(self, round_number: int) -> Action:
        assert self._script is not None
        if self._awaiting_target is not None:
            self._poll_result = self._reply_seen
            self._awaiting_target = None
            self._reply_seen = False
        try:
            step = next(self._script)
        except StopIteration:
            return Action.halting()
        kind = step[0]
        if kind == _WORK:
            unit = step[1]
            self.view.work_next = unit + 1
            self.view.work_round = round_number
            self._resume_round = round_number + 1
            return Action(work=unit)
        if kind == _POLL:
            target = step[1]
            self._awaiting_target = target
            self._reply_seen = False
            self._resume_round = round_number + 2  # send, wait one round
            return Action(
                sends=Broadcast((target,), ("are_you_alive", self.pid), MessageKind.POLL)
            )
        # _REPORT: ordinary message carrying the full view.
        key, target = step[1], step[2]
        self.view.record_report(key, target, round_number)
        payload = ("view", self.view.copy(), self.attachment)
        self._resume_round = round_number + 1
        return Action(sends=Broadcast((target,), payload, MessageKind.ORDINARY))

    def _report_target(self, key: GroupKey) -> Optional[int]:
        members = self.levels.members(key)
        return cyclic_successor(
            members, self.view.last_informed_pid(key), self.view.faulty | {self.pid}
        )

    def _active_script(self) -> Iterator[ScriptStep]:
        view = self.view
        top = self.levels.num_levels
        for level in range(top, 0, -1):
            key = self.levels.key_of(self.pid, level)
            members = self.levels.members(key)
            while True:
                excluded = view.faulty | {self.pid}
                target = cyclic_successor(
                    members, view.last_informed_pid(key), excluded
                )
                if target is None:
                    break  # everyone else in this group is known retired
                yield (_POLL, target, None)
                if self._poll_result:
                    break  # found someone alive; descend a level
                view.faulty.add(target)
                if level != top:
                    report_key = self.levels.key_of(self.pid, level + 1)
                    report_target = self._report_target(report_key)
                    if report_target is not None:
                        yield (_REPORT, report_key, report_target)
        # Level 0: the real work, reported into the level-1 group.
        batch_size = max(1, -(-self.n // self.t)) if self.batched else 1
        since_report = 0
        level1_key = self.levels.key_of(self.pid, 1)
        while view.work_next <= self.n:
            unit = view.work_next
            yield (_WORK, unit, None)
            since_report += 1
            if since_report >= batch_size or view.work_next > self.n:
                since_report = 0
                report_target = self._report_target(level1_key)
                if report_target is not None:
                    yield (_REPORT, level1_key, report_target)


def build_protocol_c(
    n: int, t: int, *, epoch: int = 0, slack: int = 2, batched: bool = False
) -> List[ProtocolCProcess]:
    """Construct the full set of Protocol C processes."""
    return [
        ProtocolCProcess(pid, t, n, batched=batched, epoch=epoch, slack=slack)
        for pid in range(t)
    ]


def build_protocol_c_batched(
    n: int, t: int, *, epoch: int = 0, slack: int = 2
) -> List[ProtocolCProcess]:
    """The Corollary 3.9 variant: level-0 work reported every ``n/t`` units."""
    return build_protocol_c(n, t, epoch=epoch, slack=slack, batched=True)
