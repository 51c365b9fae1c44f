"""Protocol D (Section 4): time-optimal via parallel work + agreement.

The protocol alternates *work phases* and *agreement phases*.  In a work
phase the outstanding units are split evenly (by rank) among the
processes thought correct; everyone works its share, padding with idle
rounds so all spend ``ceil(|S|/|T|)`` rounds.  The agreement phase is the
early-stopping crash-tolerant exchange of [Dolev-Reischuk-Strong]: each
round every process broadcasts ``(S, T, done)``; units reported done are
intersected away, discovered-correct sets are unioned, silent processes
are removed (after a one-round grace period in phases >= 2, since phases
may start one round apart), and a process decides when its view of the
live set is unchanged across two consecutive rounds - or immediately
adopts the final view of a process that already decided.

If more than half the processes thought correct at the start of a phase
are discovered to have failed (threshold configurable - the paper notes
any factor alpha works, at work cost ``n / (1 - alpha)``), the remaining
processes abandon phasing and finish the outstanding units with
Protocol A among themselves (the reversion path of Theorem 4.1(2)).

Theorem 4.1(1): with ``f`` failures and no reversion, at most ``2n``
work, at most ``(4f + 2) t^2`` messages, and all processes retire by
round ``(f+1) n/t + 4f + 2``.  Failure-free: exactly ``n`` work,
``n/t + 2`` rounds, at most ``2 t^2`` messages.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.agreement_fold import AgreementLayout, AgreementProcess, work_share
from repro.core.deadlines import DEFAULT_SLACK
from repro.core.protocol_a import ProtocolAProcess
from repro.errors import ConfigurationError
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.bitset import FrozenIntBitset, IntBitset

_WORK = "work"
_AGREE = "agree"
_REVERT = "revert"

#: Agreement payload: (phase index, outstanding units, known-correct, done).
#: The two set components travel as frozen bitset snapshots - freezing is
#: O(1) and the recipient's fold is word-parallel bitwise algebra instead
#: of O(n) element-wise set churn.
AgreePayload = Tuple[int, FrozenIntBitset, FrozenIntBitset, bool]

_INNER_KINDS = (MessageKind.PARTIAL_CHECKPOINT, MessageKind.FULL_CHECKPOINT)
_AGREEMENT = MessageKind.AGREEMENT


class ProtocolDProcess(AgreementProcess):
    """One process of Protocol D."""

    #: Units still outstanding are intersected, known-correct sets unioned.
    layout = AgreementLayout("protocol-d", 3, ((1, "S", True), (2, "T", False)))

    def __init__(
        self,
        pid: int,
        t: int,
        n: int,
        *,
        revert_threshold: float = 0.5,
    ):
        super().__init__(pid, t)
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n}")
        if not 0.0 < revert_threshold <= 1.0:
            raise ConfigurationError(
                f"revert threshold must be in (0, 1], got {revert_threshold}"
            )
        self.n = n
        self.revert_threshold = revert_threshold
        self.S: IntBitset = IntBitset.from_range(1, n + 1)
        self.T: IntBitset = IntBitset.from_range(0, t)
        self.phase_index = 0
        self.reverted = False
        # Work-phase state.
        self._share: List[int] = []
        self._work_start = 0
        self._work_done_count = 0
        self._agree_entry = 0
        # Agreement-phase state (the live-set estimate and its snapshot
        # as python ints).
        self._U = 0
        self._u_snapshot = 0
        self._round_var = 0
        self._agree_done = False
        #: |T| when the current phase began (the reversion threshold's base).
        self._team_size = len(self.T)
        #: Inboxes drained since the last agreement round, in drain order
        #: (the fold keeps only this phase's AGREEMENT messages).
        self._buffer: List = []
        # Reversion state.
        self._inner: Optional[ProtocolAProcess] = None
        self._revert_members: List[int] = []
        self._revert_units: List[int] = []
        self.state = _WORK
        self._setup_work_phase(start_round=0)

    # ---- work phases ------------------------------------------------------

    def _setup_work_phase(self, start_round: int, store=None) -> None:
        self.state = _WORK
        self.phase_index += 1
        team = self._team_size = len(self.T)       # popcount, O(1)
        pool = len(self.S)
        per_process = math.ceil(pool / team) if team else 0
        # The share is this process's rank slice of ceil(|S|/|T|) units
        # (see work_share): no O(n) member list per process.
        if per_process == 0 or self.pid not in self.T:
            # Not thought correct: cannot happen for a live process in
            # the crash model, but stay safe.
            self._share = []
        else:
            self._share = work_share(
                store, self.S, self.T, self.pid, per_process, start_round
            )
        self._work_start = start_round
        self._work_done_count = 0
        self._agree_entry = start_round + per_process
        # Line 8 of Figure 4: S := S \ S'.  Removing the share up front is
        # equivalent: the share is fully performed before S is next used
        # (at agreement), and a crashed process's S is never consulted.
        # The share is every member of S from its first unit to its last.
        if self._share:
            self.S.difference_update(
                IntBitset.from_range(self._share[0], self._share[-1] + 1)
            )

    # ---- scheduling ----------------------------------------------------------

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.crashed or self.halted:  # ``retired``, read once per step
            return None
        if self.state == _REVERT:
            assert self._inner is not None
            return self._inner.wake_round()
        if self.state == _WORK:
            if self._work_done_count < len(self._share):
                return self._work_start + self._work_done_count
            return self._agree_entry
        return 0  # agreement: act every round

    # ---- round dispatch ---------------------------------------------------------

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        if self.state == _REVERT:
            return self._revert_round(round_number, inbox)
        if inbox:
            self._buffer.append(inbox)
        if self.state == _WORK:
            if round_number < self._agree_entry:
                return self._work_round(round_number)
            return self._enter_agree(round_number)
        # Lines 8-18 of Figure 4 (see repro.core.agreement_fold).
        action = self._agree_round(round_number, self._buffer, self.phase_index)
        self._buffer.clear()
        return action

    # ---- work rounds ---------------------------------------------------------

    def _work_round(self, round_number: int) -> Action:
        index = round_number - self._work_start
        if index < len(self._share) and index == self._work_done_count:
            self._work_done_count += 1
            return Action(work=self._share[index])
        return Action.idle()  # filler: wait ceil(|S|/|T|) - |S'| rounds

    # ---- agreement rounds -------------------------------------------------------

    def _enter_agree(self, round_number: int) -> Action:
        self.state = _AGREE
        self._U = self.T.to_int()
        self.T = IntBitset.singleton(self.pid)
        self._agree_done = False
        self._round_var = 1 if self.phase_index == 1 else 0
        self._u_snapshot = self._U
        return Action(sends=self._agree_broadcast(done=False))

    def _agree_broadcast(self, done: bool) -> Broadcast:
        payload: AgreePayload = (
            self.phase_index,
            self.S.freeze(),
            self.T.freeze(),
            done,
        )
        # One packed broadcast: Theta(t) recipients share one payload
        # object; the engine never materialises per-copy messages.
        recipients = FrozenIntBitset(self._U & ~(1 << self.pid))
        return Broadcast(recipients, payload, _AGREEMENT)

    def _finish_agreement(self, round_number: int, sends: Broadcast, store) -> Action:
        threshold = self.revert_threshold * self._team_size
        if self.S and len(self.T) < threshold:
            self._enter_revert(round_number + 1)
            return Action(sends=sends)
        if not self.S:
            return Action(sends=sends, halt=True)
        self._setup_work_phase(round_number + 1, store)
        return Action(sends=sends)

    # ---- reversion to Protocol A ---------------------------------------------------

    def _enter_revert(self, start_round: int) -> None:
        self.state = _REVERT
        self.reverted = True
        if self.pid in self.T:
            self._revert_members = list(self.T)   # ascending iteration
        else:
            # A rejoiner (see protocol_d_recovery) may adopt a decided
            # view whose T excludes it: it reverts solo over its S, so
            # units are redone, never lost.
            self._revert_members = [self.pid]
        self._revert_units = list(self.S)
        rank = self._revert_members.index(self.pid)
        # Extra slack absorbs the <=1 round skew between deciders.
        self._inner = ProtocolAProcess(
            rank,
            len(self._revert_members),
            len(self._revert_units),
            epoch=start_round,
            slack=DEFAULT_SLACK + 4,
        )

    def _revert_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        assert self._inner is not None
        rank_of = {pid: rank for rank, pid in enumerate(self._revert_members)}
        translated = [
            Envelope(
                src=rank_of[env.src],
                dst=rank_of[self.pid],
                payload=env.payload,
                kind=env.kind,
                sent_round=env.sent_round,
            )
            for env in inbox
            if env.kind in _INNER_KINDS and env.src in rank_of
        ]
        action = self._inner.on_round(round_number, translated)
        work = (
            self._revert_units[action.work - 1] if action.work is not None else None
        )
        sends = action.sends
        if sends is not None:
            sends = sends.remap(self._revert_members)
        return Action(work=work, sends=sends, halt=action.halt)


def build_protocol_d(
    n: int,
    t: int,
    *,
    revert_threshold: float = 0.5,
) -> List[ProtocolDProcess]:
    """Construct the full set of Protocol D processes."""
    return [
        ProtocolDProcess(pid, t, n, revert_threshold=revert_threshold)
        for pid in range(t)
    ]
