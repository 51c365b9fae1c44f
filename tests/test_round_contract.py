"""The round contract between the sync engine and the shipped protocols.

* **Stamp order.**  Every inbox the engine hands to ``on_round`` is
  non-decreasing in ``sent_round``: mail is delivered oldest first, as
  a prefix, so the protocols read their inboxes in the order given and
  never re-sort them.  Checked with and without a receive budget, and
  under crash-mid-broadcast partial delivery.
* **Read-only actions.**  ``Action.idle()`` is one shared instance, and
  no shipped protocol changes an action after returning it: the engine
  and the adversaries only read actions, and the shared idle action
  must stay idle.
"""

from typing import List, Optional

import pytest

from repro.core.registry import available_protocols, build_processes, get_entry
from repro.sim.actions import Action
from repro.sim.adversary import CrashMidBroadcast
from repro.sim.congestion import CongestionBudget
from repro.sim.engine import Engine
from repro.work.tracker import WorkTracker

SYNC_PROTOCOLS = available_protocols("sync")
N, T = 24, 8


def _snapshot(action: Action) -> tuple:
    sends = action.sends
    if sends is None:
        return (action.work, None, action.halt)
    return (
        action.work,
        (id(sends), sends.recipients.to_int(), id(sends.payload), sends.kind),
        action.halt,
    )


class _CheckingEngine(Engine):
    """Checks, after each round commits, that every action returned so
    far still reads as it did when its process returned it."""

    def __init__(self, processes, returned: List[tuple], **kwargs):
        super().__init__(processes, **kwargs)
        self.returned = returned
        self.idle = _snapshot(Action.idle())

    def _process_round(self, round_number: int) -> None:
        super()._process_round(round_number)
        for action, snapshot in self.returned:
            assert _snapshot(action) == snapshot, (round_number, action)
        assert _snapshot(Action.idle()) == self.idle


def _run(protocol: str, receive: Optional[int], mid_broadcast: bool):
    """Run ``protocol`` with every process's ``on_round`` wrapped; return
    the stamp sequences of the non-empty inboxes, the returned actions
    with their snapshots, and the run's result."""
    processes = build_processes(protocol, N, T)
    stamps: List[List[int]] = []
    returned: List[tuple] = []

    def wrap(process):
        inner = process.on_round

        def on_round(round_number, inbox):
            if inbox:
                stamps.append([envelope.sent_round for envelope in inbox])
            action = inner(round_number, inbox)
            returned.append((action, _snapshot(action)))
            return action

        process.on_round = on_round

    for process in processes:
        wrap(process)
    engine = _CheckingEngine(
        processes,
        returned,
        tracker=WorkTracker(N),
        adversary=CrashMidBroadcast(victims=(0, 1, 2), min_batch=1) if mid_broadcast else None,
        seed=3,
        strict_invariants=get_entry(protocol).single_active,
        congestion=CongestionBudget(receive=receive) if receive is not None else None,
    )
    result = engine.run()
    return stamps, returned, result


@pytest.mark.parametrize("mid_broadcast", [False, True], ids=["no-crash", "crash-mid-broadcast"])
@pytest.mark.parametrize("receive", [None, 3], ids=["unbudgeted", "receive-3"])
@pytest.mark.parametrize("protocol", SYNC_PROTOCOLS)
def test_inboxes_arrive_in_stamp_order_and_actions_stay_put(protocol, receive, mid_broadcast):
    stamps, returned, result = _run(protocol, receive, mid_broadcast)
    assert stamps or result.metrics.messages_total == 0
    for inbox_stamps in stamps:
        assert inbox_stamps == sorted(inbox_stamps), inbox_stamps
    if receive is not None and stamps:
        assert max(len(inbox_stamps) for inbox_stamps in stamps) <= receive
    if receive is not None and protocol.startswith("d"):
        # The budget leaves backlogs that meet newer mail in one inbox,
        # so the order check is not vacuous.
        assert any(len(set(inbox_stamps)) > 1 for inbox_stamps in stamps)
    assert returned
    assert result.metrics.work_total > 0


def test_idle_action_is_one_shared_instance():
    idle = Action.idle()
    assert idle is Action.idle()
    assert (idle.work, idle.sends, idle.halt) == (None, None, False)
