"""Recovery-aware Protocol D: rejoin from the last phase checkpoint.

The paper's model is fail-stop, so Protocol D never plans for a crashed
process to come back.  This variant makes the phase structure double as
a *checkpoint discipline*: at the start of every work phase each process
snapshots ``(phase_index, S, T)`` - the outstanding units and the set
thought correct - and a crash-recover fault (see
:mod:`repro.sim.crashes`) restores exactly that snapshot, discarding
everything the process learned since.  That is deliberately *stale*
state: the rejoiner redoes its phase share (redundant work the metrics
make visible) and broadcasts agreement messages for a phase its peers
may have long finished.

The agreement phase absorbs the staleness without modification:

* peers ahead of the rejoiner drop its old-phase messages (the buffer
  filter admits only ``payload.phase >= self.phase_index``);
* the rejoiner, hearing nobody in its stale phase, watches its live-set
  estimate collapse to ``{self}`` after the grace round, decides, and -
  holding a stale non-empty ``S`` with ``|T| = 1`` under the reversion
  threshold - falls back to a solo Protocol A run over the units it
  still believes outstanding.  Units other processes finished meanwhile
  are redone, never lost, so completion is preserved.

A rejoiner that recovers while its peers are still in the same phase
simply participates again: its intersected ``S`` and unioned ``T`` fold
into the agreement like any other ongoing view.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.protocol_d import ProtocolDProcess
from repro.sim.bitset import IntBitset


class ProtocolDRecoveryProcess(ProtocolDProcess):
    """Protocol D with per-phase checkpoints and crash-recover support."""

    supports_recovery = True

    _checkpoint: Tuple[int, IntBitset, IntBitset]

    def _setup_work_phase(self, start_round: int, store=None) -> None:
        # Snapshot the pre-phase view (phase_index before the increment,
        # S before the share is carved out, T before agreement rewrites
        # it): this is the state a crash anywhere in the phase - work,
        # agreement, or reversion - rolls back to.
        self._checkpoint = (self.phase_index, self.S.copy(), self.T.copy())
        super()._setup_work_phase(start_round, store)

    def on_recover(self, round_number: int) -> None:
        phase_index, checkpoint_s, checkpoint_t = self._checkpoint
        self.phase_index = phase_index
        self.S = checkpoint_s.copy()
        self.T = checkpoint_t.copy()
        # Transient state died with the crash: buffered agreement
        # traffic, the live-set estimate, and any embedded Protocol A
        # run from a reversion in progress.
        self._buffer = []
        self._U = 0
        self._u_snapshot = 0
        self._round_var = 0
        self._agree_done = False
        self._inner = None
        self._revert_members = []
        self._revert_units = []
        self.reverted = False
        # Replay the checkpointed phase from the rejoin round; this
        # re-snapshots the same checkpoint, so repeated crash-recover
        # cycles replay the same phase until one completes.
        self._setup_work_phase(start_round=round_number)


def build_protocol_d_recovery(n: int, t: int) -> List[ProtocolDRecoveryProcess]:
    """Construct the full set of recovery-aware Protocol D processes."""
    return [ProtocolDRecoveryProcess(pid, t, n) for pid in range(t)]
