"""The shared DoWork script (Figure 1): dispatch cases and transcript shape."""

from repro.core.chunks import SubchunkPlan
from repro.core.dowork import (
    FULL,
    PARTIAL,
    dowork_script,
    fictitious_initial_message,
)
from repro.core.groups import SqrtGroups
from repro.sim.actions import MessageKind

T = 16
GROUPS = SqrtGroups(T)
PLAN = SubchunkPlan(160, T, GROUPS.group_size)


def _transcript(pid, payload, sender):
    return list(dowork_script(pid, GROUPS, PLAN, payload, sender))


def _work_units(steps):
    return [work for work, _ in steps if work is not None]


def _broadcast_payloads(steps):
    return [sends.payload for _, sends in steps if sends]


def test_fresh_start_performs_all_units_in_order():
    payload, sender, _ = fictitious_initial_message(0, GROUPS)
    steps = _transcript(0, payload, sender)
    assert _work_units(steps) == list(range(1, 161))


def test_partial_checkpoint_after_every_subchunk():
    payload, sender, _ = fictitious_initial_message(0, GROUPS)
    steps = _transcript(0, payload, sender)
    partials = [p for p in _broadcast_payloads(steps) if p[0] == PARTIAL]
    assert partials == [(PARTIAL, c) for c in range(1, 17)]


def test_full_checkpoint_at_chunk_boundaries():
    payload, sender, _ = fictitious_initial_message(0, GROUPS)
    steps = _transcript(0, payload, sender)
    fulls = {p for p in _broadcast_payloads(steps) if p[0] == FULL}
    boundaries = {c for c in PLAN.boundaries()}
    # c = 0 is the echo of the fictitious initial message; every other
    # full checkpoint happens exactly at the chunk boundaries.
    assert {c for _, c, _ in fulls} - {0} == boundaries
    # Every later group is told about every boundary.
    for c in boundaries:
        assert {g for kind, cc, g in fulls if cc == c} == {2, 3, 4}


def test_resume_from_partial_checkpoint():
    # Took over having last heard (c=5) from a same-group predecessor.
    steps = _transcript(5, (PARTIAL, 5), 4)
    assert _work_units(steps) == list(PLAN.units_of(6)) + [
        unit for c in range(7, 17) for unit in PLAN.units_of(c)
    ]
    # First action completes the interrupted partial checkpoint of 5.
    first_payloads = _broadcast_payloads(steps[:1])
    assert first_payloads == [(PARTIAL, 5)]


def test_resume_from_partial_checkpoint_at_boundary_redoes_full():
    steps = _transcript(5, (PARTIAL, 4), 4)
    payloads = _broadcast_payloads(steps)
    assert payloads[0] == (PARTIAL, 4)
    assert payloads[1] == (FULL, 4, 3)  # g_5 = 2, sweep starts at group 3


def test_resume_from_full_checkpoint_outside_group():
    # Process 9 (group 3) heard (c=4, g=3) from process 0 (group 1).
    steps = _transcript(9, (FULL, 4, 3), 0)
    payloads = _broadcast_payloads(steps)
    # Prose dispatch: partial checkpoint of 4 to own higher members, then
    # the full checkpoint resumes at group 4.
    assert payloads[0] == (PARTIAL, 4)
    assert payloads[1] == (FULL, 4, 4)
    assert _work_units(steps)[0] == PLAN.units_of(5)[0]


def test_resume_from_full_checkpoint_echo_within_group():
    # Process 1 (group 1) heard the echo (c=4, g=2) from process 0.
    steps = _transcript(1, (FULL, 4, 2), 0)
    payloads = _broadcast_payloads(steps)
    assert payloads[0] == (FULL, 4, 2)   # finish the echo to own group
    assert payloads[1] == (FULL, 4, 3)   # resume the sweep after group 2


def test_terminal_subchunk_checkpointed_even_for_last_group_member():
    # The very last process: no higher members, no later groups - the
    # script may be all work and no messages.
    steps = _transcript(15, (PARTIAL, 15), 14)
    assert _work_units(steps) == PLAN.units_of(16)
    assert all(sends is None for work, sends in steps if work is not None)


def test_kinds_are_checkpoint_kinds():
    payload, sender, _ = fictitious_initial_message(4, GROUPS)
    steps = _transcript(4, payload, sender)
    kinds = {sends.kind for _, sends in steps if sends}
    assert kinds <= {MessageKind.PARTIAL_CHECKPOINT, MessageKind.FULL_CHECKPOINT}


def test_broadcast_recipients_partial_vs_full():
    steps = _transcript(0, (PARTIAL, 15), 1)
    for _, sends in steps:
        if not sends:
            continue
        payload = sends.payload
        recipients = list(sends.dsts())
        if payload[0] == PARTIAL:
            assert recipients == [1, 2, 3]  # own higher members
        else:
            _, _, g = payload
            members = GROUPS.members(g)
            assert recipients in (members, [1, 2, 3])  # group or own echo


def test_fictitious_message_forms():
    payload, sender, stamp = fictitious_initial_message(0, GROUPS)
    assert sender == 0 and stamp == 0
    assert payload == (FULL, 0, GROUPS.num_groups)  # group-1 members
    payload, _, _ = fictitious_initial_message(9, GROUPS)
    assert payload == (FULL, 0, GROUPS.group_of(9))
