"""The DoWork procedure shared by Protocols A and B (Figure 1).

When a process becomes active it (1) finishes whatever checkpoint the
previous active process was performing when it crashed, inferred from the
last message it received, and (2) resumes the work from the first
subchunk not known to be complete, partial-checkpointing every subchunk
to its own group and full-checkpointing every chunk to all groups.

The procedure is expressed as a generator of per-round steps so that the
same code drives the synchronous processes of Protocols A and B and the
asynchronous variant of Protocol A (where each step is an event rather
than a round).  Each yielded step is ``(work_unit_or_None, sends)``;
the generator's exhaustion means the active process terminates.

Dispatch on the last received message follows the prose of Section 2.1,
which (unlike the condensed code of Figure 1) completes the interrupted
*full* checkpoint in the received-from-outside-group case: "j must inform
the rest of its own group that subchunk c was performed, which it does
with a Partialcheckpoint(c), and proceeds with the full checkpoint of c,
beginning with group g+1".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterator, Optional, Tuple

from repro.core.chunks import SubchunkPlan
from repro.core.groups import SqrtGroups
from repro.sim.actions import Broadcast, MessageKind

#: One active-process round: (work unit or None, broadcast or None).
Step = Tuple[Optional[int], Optional[Broadcast]]

#: Payload forms (all carry the subchunk index ``c``):
#:   ("partial", c)      - partial checkpoint to the sender's own group
#:   ("full", c, g)      - full checkpoint: group ``g`` is (being) told
PARTIAL = "partial"
FULL = "full"


@lru_cache(maxsize=64)
def layout(n: int, t: int, slack: int, deadlines: type) -> Tuple[SqrtGroups, SubchunkPlan, Any]:
    """The groups, subchunk plan and ``deadlines(n=n, t=t, slack=slack)``
    of one shape.  All three are frozen, so every process of that shape,
    in every run, shares one of each instead of building its own."""
    groups = SqrtGroups(t)
    return groups, SubchunkPlan(n, t, groups.group_size), deadlines(n=n, t=t, slack=slack)


def fictitious_initial_message(pid: int, groups: SqrtGroups) -> Tuple[tuple, int, int]:
    """The paper's round-0 convention: every process is deemed to have
    received an ordinary message ``(0, g)`` from process 0 just before
    the execution begins.

    For processes outside group 1 we use ``g = g_j`` (the only full-
    checkpoint form they can receive from outside their group); for group
    1 members we use ``g = ng`` so the uniform dispatch resumes with no
    pending full-checkpoint sweep.  Returns (payload, sender, stamp).
    Fictitious messages are never sent and never counted.
    """
    gj = groups.group_of(pid)
    g = groups.num_groups if gj == 1 else gj
    return (FULL, 0, g), 0, 0


def checkpoint_payload_subchunk(payload: tuple) -> int:
    """Extract the subchunk index from either checkpoint payload form."""
    return payload[1]


def _partial_checkpoint(
    pid: int, groups: SqrtGroups, c: int
) -> Iterator[Step]:
    """One broadcast of ``(c)`` to the higher members of ``pid``'s group.

    An empty recipient set consumes no round: nobody is listening, and
    skipping only shortens the active period (deadlines are upper
    bounds).
    """
    recipients = groups.higher_members(pid)
    if recipients:
        yield None, Broadcast(recipients, (PARTIAL, c), MessageKind.PARTIAL_CHECKPOINT)


def _full_checkpoint(
    pid: int, groups: SqrtGroups, c: int, start_group: int
) -> Iterator[Step]:
    """Inform groups ``start_group..ng`` that subchunk ``c`` is complete,
    echoing each step to the sender's own group (the paper's "double
    checkpointing": the fact that a group has been informed is itself
    checkpointed)."""
    own = groups.higher_members(pid)
    for g in range(start_group, groups.num_groups + 1):
        members = groups.members(g)
        payload = (FULL, c, g)
        if members:
            yield None, Broadcast(members, payload, MessageKind.FULL_CHECKPOINT)
        if own:
            yield None, Broadcast(own, payload, MessageKind.FULL_CHECKPOINT)


def dowork_script(
    pid: int,
    groups: SqrtGroups,
    plan: SubchunkPlan,
    last_payload: tuple,
    last_sender: int,
) -> Iterator[Step]:
    """Generate the active process's rounds, given its last message."""
    gj = groups.group_of(pid)
    c = checkpoint_payload_subchunk(last_payload)

    if last_payload[0] == FULL:
        g = last_payload[2]
        if groups.group_of(last_sender) != gj:
            # The previous active process was telling j's group about c;
            # finish telling j's own group, then resume the sweep after it.
            yield from _partial_checkpoint(pid, groups, c)
            yield from _full_checkpoint(pid, groups, c, gj + 1)
        else:
            # k was echoing "group g has been told about c" to its own
            # (= j's) group; finish the echo, then resume after group g.
            own = groups.higher_members(pid)
            if own:
                yield None, Broadcast(own, (FULL, c, g), MessageKind.FULL_CHECKPOINT)
            yield from _full_checkpoint(pid, groups, c, g + 1)
    else:
        # Partial checkpoint of c was in flight: complete it, and if c
        # closed a chunk, redo the chunk's full checkpoint sweep.
        yield from _partial_checkpoint(pid, groups, c)
        if c > 0 and plan.is_chunk_boundary(c):
            yield from _full_checkpoint(pid, groups, c, gj + 1)

    for subchunk in range(c + 1, plan.num_subchunks + 1):
        for unit in plan.units_of(subchunk):
            yield unit, None
        yield from _partial_checkpoint(pid, groups, subchunk)
        if plan.is_chunk_boundary(subchunk):
            yield from _full_checkpoint(pid, groups, subchunk, gj + 1)
