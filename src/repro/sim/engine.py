"""Synchronous round engine with quiescence fast-forward.

The engine realises the paper's timing model:

* rounds are numbered 0, 1, 2, ...;
* in round ``r`` a process may perform one unit of work and send one
  batch of messages (one broadcast);
* a message sent in round ``r`` is stamped ``r`` and becomes visible to
  its recipient's decisions from round ``r + 1`` on;
* a process that crashes mid-round delivers an adversary-chosen subset
  of its batch.

Fast-forward: the engine never iterates over rounds in which no process
is due (has mail or a wake-up).  This matters enormously for Protocol C,
whose timeout deadlines are ``Theta(K (n+t) 2^{n+t})`` rounds: the round
counter is just a Python integer, so simulating an execution whose last
retirement happens at round ~10^40 costs time proportional to the number
of *actions*, not rounds.

Event-indexed scheduling
------------------------

Fast-forward alone makes wall time proportional to *processed rounds*,
but a naive implementation still pays ``O(t + total_mail)`` per processed
round to rediscover which processes are due.  This engine instead keeps
an event index, mirroring the heap-based design of
:mod:`repro.sim.async_engine`, so the total scheduling cost is
``O(actions * log t)``:

* **A mail mask.**  Mail is only ever posted at the current processed
  round and processed rounds strictly increase, so a non-empty mailbox
  always means "due at the next processed round".  Posting mail is
  therefore one ``|=`` of the recipients into ``_posted``, which merges
  into the mail mask ``_mail`` when the next round starts.  The merge
  comes *before* that round's deferred congestion flushes: they are
  stamped with the round itself, so their recipients are due only from
  the round after, and wait in ``_posted`` like any other post.  A
  receive budget that leaves a backlog behind a step puts the pid back
  in ``_posted`` (the one place the engine reads ``head_stamp``).
* **A wake heap with lazy invalidation.**  ``_heap`` holds
  ``(wake_round, pid)`` pairs and ``_wake`` each pid's cached
  ``wake_round()``; entries that no longer match ``_wake`` are
  discarded when they surface.  A step whose wake round did not move
  pushes nothing, so the heap holds about one entry per process.
* **The due set** of round ``r`` is the mail mask OR the popped,
  still-valid wake entries; read low bit first it is already in
  ascending pid order.  The index is updated incrementally - when mail
  is posted, when a process steps, and when a process retires or
  rejoins - never by scanning all ``t`` processes.
* **A step re-reads one number.**  After a round commits, each stepped
  process that is still live only has its ``wake_round()`` re-read
  (and, under a receive budget, its backlog checked).  The engine
  re-enters a process whole (:meth:`Engine._refresh_schedule`) only at
  construction and where it crashes, halts or rejoins one - not once
  per step.
* **One delivery store.**  Mail lives in
  :class:`~repro.sim.columnar.ColumnarMailboxes`
  (``post_p2p``/``post_broadcast``/``drain``/``head_stamp``/``clear``):
  a wide broadcast is one row of a shared log, other mail one envelope
  per copy in the recipient's lane.  Each recipient's mail is delivered
  in stamp order, as a prefix.
* **Live-set bookkeeping.**  ``_live``, ``_active`` and ``_crashed_pids``
  are maintained at retirement/activation events, so the main loop,
  strict-invariant check and crash guard never iterate over retired
  processes; the round loop tests liveness as membership in ``_live``.
  When no process class overrides ``Process.is_active`` (always False),
  the loop reads no ``is_active`` at all.
* **Commits in the round.**  ``_process_round`` commits the round's
  actions itself; with no trace and no ``unit_effect`` attached a work
  unit is one call into the run's ledger.
* **Lazy broadcast fan-out.**  Every send - an action's batch or a
  ``unit_effect``'s - is one :class:`Broadcast`, committed through
  :meth:`Engine._post_batch` without ever materialising per-copy
  messages: one :meth:`Metrics.record_sends` call and one store post,
  restricted to *live* recipients with one mask ``&``.  Trace emission
  is skipped entirely when tracing is disabled.

Crash-recover and congestion
----------------------------

Two extensions widen the paper's fault model without touching its
defaults (both are off unless configured):

* **Crash-recover faults.**  A :class:`CrashDirective` with
  ``recover_after=k`` schedules its victim to rejoin ``k`` rounds after
  the crash, restored to its last checkpoint via
  ``Process.mark_recovered`` (only protocols with
  ``supports_recovery = True`` accept such directives).  Pending rejoins
  live in a ``(round, pid)`` heap merged into the next-due computation,
  so quiescence fast-forward still works; a rejoining process is
  rescheduled *before* the round's due set is collected and may act the
  same round.
* **Congestion budgets.**  A :class:`CongestionBudget` caps each
  process's per-round sends and/or receives.  Excess sends are split off
  deterministically (in ascending recipient order) and parked in a
  per-round deferral map; they depart - metrics and trace charged at the
  departure round - at the top of their round, surviving the sender's
  crash in between (they were already in the network), though copies to
  by-then-retired recipients are dropped like any other send.  Excess
  *receives* stay queued at the front of the mailbox (stamp order
  preserved, so the sortedness invariant holds) and arrive at the next
  round(s).

Wake rounds are cached, which is sound because ``wake_round()`` is a pure
function of process state and that state only changes at engine-observed
points (see the scheduling contract in :mod:`repro.sim.process`).  All
of this is observationally identical to the naive scan: same metrics,
same trace, same RNG draws (``tests/test_scheduler_equivalence.py``
checks exactly that against a reference scheduler).
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    AdversaryError,
    BudgetExceeded,
    InvariantViolation,
    SimulationStalled,
)
from repro.sim.actions import Action, Broadcast
from repro.sim.columnar import ColumnarMailboxes
from repro.sim.congestion import CongestionBudget
from repro.sim.crashes import CrashDirective
from repro.sim.metrics import Metrics, RunResult
from repro.sim.process import Process
from repro.sim.rng import child_rng, derive_rng, make_rng
from repro.sim.trace import Trace
from repro.work.tracker import WorkTracker

UnitEffectFn = Callable[[int, int, int], Optional[Broadcast]]


class Engine:
    """Drives a set of :class:`Process` instances to completion."""

    def __init__(
        self,
        processes: Sequence[Process],
        *,
        tracker: Optional[WorkTracker] = None,
        adversary: Optional["Adversary"] = None,
        seed: int = 0,
        max_steps: int = 5_000_000,
        max_rounds: Optional[int] = None,
        strict_invariants: bool = False,
        allow_total_failure: bool = False,
        unit_effect: Optional[UnitEffectFn] = None,
        trace: Optional[Trace] = None,
        congestion: Optional[CongestionBudget] = None,
    ):
        self.processes: List[Process] = list(processes)
        self.t = len(self.processes)
        self.tracker = tracker
        self.adversary = adversary
        self.rng = make_rng(seed)
        # The crash-subset stream's 64 bits are drawn here, so every later
        # draw from ``rng`` stays put; the ``Random`` itself is built only
        # when a crash first censors a batch (see ``crash_rng``).
        self._crash_bits = self.rng.getrandbits(64)
        self._crash_rng: Optional[random.Random] = None
        self.max_steps = max_steps
        self.max_rounds = max_rounds
        self.strict_invariants = strict_invariants
        self.allow_total_failure = allow_total_failure
        self.unit_effect = unit_effect
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.congestion = congestion
        # Congestion: per-src send-slot cursor ``(round, copies_used)`` and
        # the per-round deferral map + its round min-heap (see module
        # docstring).  Crash-recover: pending ``(rejoin_round, pid)`` heap.
        self._send_slots: Dict[int, Tuple[int, int]] = {}
        self._deferred: Dict[int, List[Tuple[int, Broadcast]]] = {}
        self._deferred_heap: List[int] = []
        self._recoveries: List[Tuple[int, int]] = []
        # One ledger per run: a tracker's completion queries read the
        # same Metrics the result reports, and each executed unit is
        # booked once, through the tracker's range check when there is one.
        self.metrics = tracker.metrics if tracker is not None else Metrics()
        self._book_work = (
            tracker.record if tracker is not None else self.metrics.record_work
        )
        self.round = -1  # last processed round
        self._store = ColumnarMailboxes(self.t)
        # Event index: see module docstring.
        self._mail: int = 0
        self._posted: int = 0
        self._heap: List[Tuple[int, int]] = []
        self._wake: List[Optional[int]] = [None] * self.t
        self._live: Set[int] = set()
        #: Packed mirror of ``_live`` (bit pid set iff not retired): lets
        #: the broadcast commit restrict its recipient bitset to live
        #: processes with one ``&`` instead of a per-recipient check.
        self._live_mask: int = 0
        self._active: Set[int] = set()
        self._crashed_pids: Set[int] = set()
        #: Whether any process can hold the active role: a class that keeps
        #: ``Process.is_active`` (always False) needs no per-step reads.
        self._tracks_active = any(
            type(process).is_active is not Process.is_active
            for process in self.processes
        )
        for process in self.processes:
            self._refresh_schedule(process.pid)
            if not process.retired and process.is_active:
                self._active.add(process.pid)
        # Processes retired before the run started still bound the
        # execution's retire round (engine-driven retirements are
        # recorded at event time in _apply_crashes/_process_round).
        for process in self.processes:
            if process.halt_round is not None:
                self.metrics.record_retire(process.pid, process.halt_round)
            if process.crash_round is not None:
                self.metrics.record_retire(process.pid, process.crash_round)
        if adversary is not None:
            adversary.bind(self)

    # ---- public API --------------------------------------------------

    @property
    def crash_rng(self) -> random.Random:
        """The stream that picks which copies of a crashing sender's
        batch get through, derived from ``rng`` like any child stream."""
        if self._crash_rng is None:
            self._crash_rng = child_rng(self._crash_bits, "crash-subsets")
        return self._crash_rng

    @property
    def crashed_count(self) -> int:
        """Number of processes that have crashed so far (O(1))."""
        return len(self._crashed_pids)

    def active_pids(self) -> List[int]:
        """Pids currently holding the active role, in pid order (O(1)-ish)."""
        return sorted(self._active)

    def run(self) -> RunResult:
        """Run until every process retires; return the outcome."""
        steps = 0
        # A crashed process with a pending rejoin still counts as work
        # to do: the run only ends once no process is live *and* no
        # recovery is scheduled.
        while self._live or self._recoveries:
            next_round = self._next_due_round()
            if next_round is None:
                # Live processes remain but none will ever act again.
                raise SimulationStalled(
                    "live processes remain but nothing is scheduled: "
                    + ", ".join(
                        f"p{p.pid}({p.state_label()})"
                        for p in self.processes
                        if not p.retired
                    )
                )
            if self.max_rounds is not None and next_round > self.max_rounds:
                raise BudgetExceeded(
                    f"round {next_round} exceeds max_rounds={self.max_rounds}"
                )
            self._process_round(next_round)
            steps += 1
            if steps > self.max_steps:
                raise BudgetExceeded(f"exceeded max_steps={self.max_steps}")
        return self._result()

    # ---- schedule computation -----------------------------------------

    def _refresh_schedule(self, pid: int) -> None:
        """Re-enter ``pid`` into the event index, or take it out.

        Called at construction and right after the engine crashes, halts
        or rejoins ``pid``.  (A step only re-reads the wake round, inside
        :meth:`_process_round`.)  A wake round that did not move pushes
        nothing.  Retirement also updates the live/active/crashed
        bookkeeping and drops the pid's mail.
        """
        process = self.processes[pid]
        bit = 1 << pid
        if process.retired:
            self._wake[pid] = None
            self._mail &= ~bit
            self._posted &= ~bit
            self._live.discard(pid)
            self._live_mask &= ~bit
            self._active.discard(pid)
            if process.crashed:
                self._crashed_pids.add(pid)
            self._store.clear(pid)
            return
        self._live.add(pid)
        self._live_mask |= bit
        wake = process.wake_round()
        if wake != self._wake[pid]:
            self._wake[pid] = wake
            if wake is not None:
                heappush(self._heap, (wake, pid))
        congestion = self.congestion
        if congestion is not None and congestion.receive is not None:
            # A receive budget can leave a backlog behind a step; like
            # this round's posts, it is due next round.
            if self._store.head_stamp(pid) is not None:
                self._posted |= bit

    def _note_mail(self, recipients: int, sent_round: int) -> None:
        """Mark every pid in the ``recipients`` mask as having mail.

        Mail is only ever posted at the current processed round
        (``sent_round == self.round``) and becomes deliverable at the
        next one, so a post is one ``|=`` into ``_posted``.
        """
        self._posted |= recipients

    def _next_due_round(self) -> Optional[int]:
        # Due rounds may lie in the past ("act as soon as possible");
        # clamp to the next unprocessed round.  Pending mail is always
        # due there.
        floor = self.round + 1
        if self._mail or self._posted:
            return floor
        heap, wake = self._heap, self._wake
        best: Optional[int] = None
        while heap:
            due, pid = heap[0]
            if wake[pid] == due:
                best = due
                break
            heappop(heap)
        # Deferred congestion flushes and pending rejoins are due rounds
        # too - without them fast-forward would sail past the event.
        if self._deferred_heap and (best is None or self._deferred_heap[0] < best):
            best = self._deferred_heap[0]
        if self._recoveries and (best is None or self._recoveries[0][0] < best):
            best = self._recoveries[0][0]
        if best is None:
            return None
        return best if best > floor else floor

    def _collect_due_pids(self, round_number: int) -> List[int]:
        """Take every process due at ``round_number``, in pid order:
        the mail mask plus each popped, still-valid wake entry.

        Taken pids leave the index; :meth:`_process_round` re-reads the
        wake round of each survivor after the round commits.
        """
        due = self._mail
        self._mail = 0
        heap, wake = self._heap, self._wake
        while heap and heap[0][0] <= round_number:
            when, pid = heappop(heap)
            if wake[pid] == when:
                wake[pid] = None
                due |= 1 << pid
        due_pids: List[int] = []
        while due:
            low = due & -due
            due ^= low
            due_pids.append(low.bit_length() - 1)
        return due_pids

    # ---- one round -----------------------------------------------------

    def _process_round(self, round_number: int) -> None:
        self.round = round_number
        # Last round's posts are deliverable now.  Rejoins come next (a
        # rejoined process may act this very round and may receive this
        # round's deferred flushes), then deferred congestion departures
        # (stamped this round, so they wait in ``_posted`` for the next).
        self._mail |= self._posted
        self._posted = 0
        if self._recoveries:
            self._apply_recoveries(round_number)
        if self._deferred_heap:
            self._flush_deferred(round_number)
        due_pids = self._collect_due_pids(round_number)
        processes = self.processes
        # ``_live`` is exactly the set of pids not retired
        # (``_refresh_schedule`` keeps it), and a set lookup is cheaper
        # than the ``retired`` property.
        live = self._live
        # Each step takes all mail stamped before this round; a receive
        # budget takes at most ``receive`` envelopes and leaves the rest
        # queued, oldest first, for the re-read below to mark as due.
        drain = self._store.drain
        congestion = self.congestion
        receive = congestion.receive if congestion is not None else None
        stepped: Dict[int, Action] = {}
        if self._tracks_active:
            for pid in due_pids:
                if pid not in live:
                    continue
                process = processes[pid]
                inbox = drain(pid, round_number, receive)
                was_active = process.is_active
                stepped[pid] = process.on_round(round_number, inbox)
                if process.is_active:
                    if not was_active:
                        self.metrics.record_activation(pid, round_number)
                        self.trace.emit(round_number, "activate", pid)
                        self._active.add(pid)
                elif was_active:
                    self._active.discard(pid)
        else:
            for pid in due_pids:
                if pid in live:
                    inbox = drain(pid, round_number, receive)
                    stepped[pid] = processes[pid].on_round(round_number, inbox)

        if self.adversary is not None:
            directives = self._collect_directives(round_number, stepped)
            if directives:
                self._apply_crashes(round_number, stepped, directives)

        # Commit every surviving action.  Without a trace or a unit
        # effect, booking a unit is one call into the ledger.
        book = (
            self._book_work
            if self.unit_effect is None and not self.trace.enabled
            else self._record_work
        )
        post_batch = self._post_batch
        for pid, action in stepped.items():
            work = action.work
            if work is not None:
                book(pid, work, round_number)
            sends = action.sends
            if sends:
                post_batch(pid, sends, round_number)
            if action.halt:
                process = processes[pid]
                if not process.crashed:
                    process.mark_halted(round_number)
                    self._refresh_schedule(pid)
                    self.metrics.record_retire(pid, round_number)
                    self.trace.emit(round_number, "halt", pid)

        # A step can only move its own process's wake round; retirements
        # already left the index through ``_refresh_schedule``.
        wake, heap = self._wake, self._heap
        for pid in due_pids:
            if pid not in live:
                continue
            due = processes[pid].wake_round()
            if due != wake[pid]:
                wake[pid] = due
                if due is not None:
                    heappush(heap, (due, pid))
            if receive is not None and self._store.head_stamp(pid) is not None:
                self._posted |= 1 << pid
        if self.strict_invariants:
            self._check_single_active(round_number)

    # ---- crashes ---------------------------------------------------------

    def _collect_directives(
        self, round_number: int, stepped: Dict[int, Action]
    ) -> List[CrashDirective]:
        directives = list(self.adversary.decide(round_number, stepped, self))
        for directive in directives:
            if not 0 <= directive.pid < self.t:
                raise AdversaryError(f"directive targets unknown pid {directive.pid}")
        return directives

    def _apply_crashes(
        self,
        round_number: int,
        stepped: Dict[int, Action],
        directives: List[CrashDirective],
    ) -> None:
        for directive in directives:
            victim = self.processes[directive.pid]
            if victim.retired:
                continue
            if not self.allow_total_failure and self.crashed_count >= self.t - 1:
                raise AdversaryError(
                    "adversary attempted to crash the last surviving process; "
                    "pass allow_total_failure=True to permit executions with "
                    "no survivor"
                )
            if directive.recover_after is not None:
                if not victim.supports_recovery:
                    raise AdversaryError(
                        f"directive asks pid {directive.pid} to recover "
                        f"(recover_after={directive.recover_after!r}), but "
                        f"{type(victim).__name__} does not support "
                        "crash-recover faults; only protocols with "
                        "supports_recovery=True keep a checkpoint to rejoin "
                        "from"
                    )
                if directive.recover_after < 1:
                    raise AdversaryError(
                        f"recover_after must be >= 1, got "
                        f"{directive.recover_after!r} (pid {directive.pid})"
                    )
                heappush(
                    self._recoveries,
                    (round_number + directive.recover_after, directive.pid),
                )
            if directive.pid in stepped:
                stepped[directive.pid] = directive.censor(
                    stepped[directive.pid], self.crash_rng
                )
            victim.mark_crashed(max(directive.at_round, 0))
            self._refresh_schedule(victim.pid)
            self.metrics.record_crash(victim.pid, victim.crash_round or round_number)
            self.trace.emit(round_number, "crash", victim.pid, directive.phase.value)

    def _apply_recoveries(self, round_number: int) -> None:
        """Rejoin every process whose repair delay elapsed by this round."""
        recoveries = self._recoveries
        while recoveries and recoveries[0][0] <= round_number:
            _, pid = heappop(recoveries)
            process = self.processes[pid]
            if not process.crashed or process.halted:
                continue
            # mark_recovered restores the checkpoint (on_recover); the
            # refresh re-enters the process, which may act this very round.
            process.mark_recovered(round_number)
            self._refresh_schedule(pid)
            self._crashed_pids.discard(pid)
            self.metrics.record_recovery(pid, round_number)
            self.trace.emit(round_number, "recover", pid)

    # ---- committing actions ----------------------------------------------

    def _record_work(self, pid: int, unit: int, round_number: int) -> None:
        self._book_work(pid, unit, round_number)
        if self.trace.enabled:
            self.trace.emit(round_number, "work", pid, unit)
        if self.unit_effect is not None:
            sends = self.unit_effect(pid, unit, round_number)
            if sends:
                self._post_batch(pid, sends, round_number)

    # ---- congestion (send budget) ----------------------------------------

    def _allocate_send_rounds(self, src: int, count: int, round_number: int) -> List[Tuple[int, int]]:
        """Assign ``count`` copies from ``src`` to departure rounds.

        Returns ``[(round, copies), ...]`` with rounds strictly
        ascending, the first entry possibly ``round_number`` itself;
        later entries are deferred departures.  The per-src cursor
        ``_send_slots[src] = (round, copies_used)`` persists across
        calls, so a backlog from one round pushes the next round's sends
        further out - exactly one budget's worth departs per round.
        """
        budget = self.congestion.send
        slot_round, used = self._send_slots.get(src, (round_number, 0))
        if slot_round < round_number:
            slot_round, used = round_number, 0
        segments: List[Tuple[int, int]] = []
        while count:
            free = budget - used
            if free <= 0:
                slot_round += 1
                used = 0
                continue
            take = free if free < count else count
            segments.append((slot_round, take))
            used += take
            count -= take
        self._send_slots[src] = (slot_round, used)
        return segments

    def _defer(self, send_round: int, src: int, batch: Broadcast) -> None:
        """Park ``batch`` (already in the network) until ``send_round``."""
        bucket = self._deferred.get(send_round)
        if bucket is None:
            bucket = self._deferred[send_round] = []
            heappush(self._deferred_heap, send_round)
        bucket.append((src, batch))
        if self.trace.enabled:
            self.trace.emit(self.round, "defer", src, (send_round, len(batch)))

    def _flush_deferred(self, round_number: int) -> None:
        """Emit every deferred batch due by this round, stamped with it.

        Deferred copies survive their sender's crash in the meantime;
        recipients retired by now drop out inside the emit bodies, like
        any other send.
        """
        heap = self._deferred_heap
        while heap and heap[0] <= round_number:
            for src, batch in self._deferred.pop(heappop(heap)):
                self._post_broadcast(src, batch, round_number)

    # ---- posting sends ---------------------------------------------------

    def _post_batch(self, src: int, sends: Broadcast, round_number: int) -> None:
        """Post one round's broadcast from ``src``.

        Under a send budget the broadcast is first split into per-round
        segments (ascending recipients); only the current round's
        segment departs now, the rest are deferred.
        """
        congestion = self.congestion
        if congestion is not None and congestion.send is not None:
            total = len(sends)
            segments = self._allocate_send_rounds(src, total, round_number)
            dsts = sends.dsts() if len(segments) > 1 else None
            offset = 0
            for send_round, take in segments:
                segment = sends if take == total else sends.restrict(dsts[offset : offset + take])
                offset += take
                if send_round != round_number:
                    self._defer(send_round, src, segment)
                else:
                    self._post_broadcast(src, segment, round_number)
            return
        self._post_broadcast(src, sends, round_number)

    def _post_broadcast(self, src: int, bcast: Broadcast, round_number: int) -> None:
        """Commit one packed broadcast: one store post and one metrics
        record for the whole batch."""
        kind = bcast.kind
        payload = bcast.payload
        self.metrics.record_sends(src, kind, len(bcast), round_number)
        trace = self.trace
        if trace.enabled:
            kind_value = kind.value
            for dst in bcast.recipients:
                trace.emit(round_number, "send", src, (kind_value, dst, payload))
        # Restricting to live recipients is one mask ``&`` (the live mask
        # only holds pids < t, so out-of-range dsts drop too).
        bits = bcast.recipients.to_int() & self._live_mask
        if bits:
            self._store.post_broadcast(src, payload, kind, round_number, bits)
            self._note_mail(bits, round_number)

    # ---- invariants and results -------------------------------------------

    def _check_single_active(self, round_number: int) -> None:
        if len(self._active) > 1:
            raise InvariantViolation(
                f"round {round_number}: multiple active processes "
                f"{sorted(self._active)}"
            )

    def _result(self) -> RunResult:
        survivors = sum(1 for p in self.processes if not p.crashed)
        halted = sum(1 for p in self.processes if p.halted)
        # Retire rounds were recorded when the retirements happened
        # (_apply_crashes / _process_round / __init__ for pre-retired
        # processes); only the availability measure needs a final pass.
        for process in self.processes:
            lifetime = process.crash_round if process.crashed else process.halt_round
            if lifetime is not None:
                self.metrics.available_processor_steps += lifetime + 1
        completed = self.tracker.all_done() if self.tracker is not None else True
        return RunResult(
            completed=completed,
            survivors=survivors,
            halted=halted,
            metrics=self.metrics,
            stalled=False,
        )


class Adversary:
    """Base adversary: observes each processed round and issues crashes.

    Subclasses override :meth:`decide`.  The engine calls it once per
    *processed* round with the actions proposed by every process that
    acted; a directive whose ``at_round`` lies in a skipped (quiescent)
    stretch is applied at the next processed round, which is
    observationally identical because an idle process emits nothing.

    Survivor rule: the paper's guarantees hold in every execution in
    which one process survives, so every adaptive adversary asks
    :meth:`spare` before it plans a crash; only a fixed schedule can ask
    for total failure (and the run must then allow it).
    """

    def bind(self, engine: Engine) -> None:
        """Derive this adversary's RNG from the engine's.  The engine
        reaches :meth:`decide` as an argument and is not kept, so a
        finished run leaves no cycle through its adversary."""
        self.rng = derive_rng(engine.rng, type(self).__name__)

    @staticmethod
    def spare(engine: Engine, planned: int = 0) -> bool:
        """Whether one more crash still leaves a survivor, counting the
        ``planned`` crashes already chosen this round."""
        return engine.crashed_count + planned < engine.t - 1

    def decide(
        self, round_number: int, actions: Dict[int, Action], engine: Engine
    ) -> List[CrashDirective]:
        return []
