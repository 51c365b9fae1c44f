"""The drain's one-span shortcut equals the general drain and the reference.

A recipient whose only pending rows are the newest segment, who is in
that segment's ``common`` and has no lane mail ready, takes the segment
minus its own row as one :class:`Span` without ``_runs``, ``_items`` or
a bisect (see :meth:`ColumnarMailboxes.drain`).  Each case posts the
same mail into the row store and into the list-per-recipient reference
store (``tests/reference_store.py``), then drains every recipient from
both, round by round, and checks that

* the envelopes equal the reference's, in order;
* where the shortcut fires, its items and the cursor it leaves equal
  what the general path builds (``_items(_runs(...))`` and
  ``_rows_before``);
* the shortcut fires for exactly the recipients the case names (a spy
  on ``_runs`` tells), so a shape meant for it cannot quietly take the
  general path, nor a shape that breaks a precondition take the
  shortcut.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

import pytest

from repro.sim import columnar
from repro.sim.actions import MessageKind
from repro.sim.columnar import ColumnarMailboxes, RowInbox, _items
from tests.reference_store import ListMailboxes

T = 8
EVERYONE = frozenset(range(T))


class Post(NamedTuple):
    stamp: int
    src: int
    #: Recipients; ``None`` addresses everyone but the sender.
    to: Optional[FrozenSet[int]] = None
    #: One lane envelope per recipient instead of a broadcast.
    lane: bool = False


@dataclasses.dataclass
class Case:
    name: str
    posts: List[Post]
    #: ``(round, receive budget)`` per drain, for every recipient.
    drains: List[Tuple[int, Optional[int]]]
    #: Recipients whose first drain takes the shortcut.
    shortcut: FrozenSet[int]


def _round(stamp, senders, to=None):
    return [Post(stamp, src, None if to is None else to.get(src)) for src in senders]


def _everyone_but(*pids):
    return EVERYONE - set(pids)


CASES = [
    Case("own row first, middle and last", _round(5, range(T)), [(6, None)], EVERYONE),
    Case("own row absent", _round(5, range(1, T)), [(6, None)], EVERYONE),
    Case("self-addressed own rows", _round(5, range(T), to={src: EVERYONE for src in range(T)}),
         [(6, None)], EVERYONE),
    Case("a one-row segment", _round(5, [3]), [(6, None)], _everyone_but(3)),
    Case("a crash-censored row", _round(5, range(T), to={2: frozenset({0, 1})}),
         [(6, None)], frozenset({0, 1, 2})),
    Case("two rows without their sender", _round(5, range(T)) + _round(5, [4]),
         [(6, None)], _everyone_but(4)),
    Case("lane mail ready", _round(5, range(T)) + [Post(5, 1, frozenset({0, 6}), lane=True)],
         [(6, None)], _everyone_but(0, 6)),
    Case("lane mail before the rows",
         [Post(4, 1, frozenset({0, 6}), lane=True)] + _round(5, range(T)),
         [(6, None)], _everyone_but(0, 6)),
    Case("lane mail not yet due",
         _round(5, range(T)) + [Post(6, 1, frozenset({0, 6}), lane=True)],
         [(6, None), (7, None)], EVERYONE),
    Case("a receive budget that cuts the span", _round(5, range(T)), [(6, 3), (7, 3), (8, 3)],
         frozenset()),
    Case("a receive budget that holds the span", _round(5, range(T)), [(6, 7)], EVERYONE),
    Case("an older undrained segment", _round(3, range(T)) + _round(5, range(T)),
         [(6, None)], frozenset()),
    Case("an older segment drained first", _round(3, range(T)) + _round(5, range(T)),
         [(4, None), (6, None)], EVERYONE),
    Case("rows stamped the drain round", _round(5, range(T)) + _round(6, range(T)),
         [(6, None), (7, None)], frozenset()),
    Case("nothing but rows stamped the drain round", _round(6, range(T)),
         [(6, None), (7, None)], frozenset()),
]


def _post(store, post: Post) -> None:
    to = post.to if post.to is not None else EVERYONE - {post.src}
    payload = ("payload", post.stamp, post.src)
    if post.lane:
        for dst in sorted(to):
            store.post_p2p(post.src, dst, payload, MessageKind.AGREEMENT, post.stamp)
    else:
        mask = sum(1 << pid for pid in to)
        store.post_broadcast(post.src, payload, MessageKind.AGREEMENT, post.stamp, mask)


@pytest.fixture
def runs_calls(monkeypatch) -> list:
    """The pids ``_runs`` was asked about, in call order."""
    calls = []
    original = ColumnarMailboxes._runs

    def spy(self, pid, row, round_number=None):
        calls.append(pid)
        return original(self, pid, row, round_number)

    monkeypatch.setattr(ColumnarMailboxes, "_runs", spy)
    return calls


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_drain_shortcut_equals_general_drain_and_reference(case, runs_calls, monkeypatch):
    # Every broadcast is a row; the lane posts of a case are explicit.
    monkeypatch.setattr(columnar, "WIDE_FANOUT", 1)
    store, reference = ColumnarMailboxes(T), ListMailboxes(T)
    posted = 0
    took_shortcut = set()
    for step, (round_number, budget) in enumerate(case.drains):
        # Mail stamped up to the drain round is posted before it (mail
        # stamped the round itself stands for a deferred congestion
        # flush); the rest waits, as the engine posts at the round it
        # processes.
        while posted < len(case.posts) and case.posts[posted].stamp <= round_number:
            for target in (store, reference):
                _post(target, case.posts[posted])
            posted += 1
        for pid in range(T):
            start = store.cursor[pid]
            general = _items(store._runs(pid, start, round_number))
            before = store._rows_before(round_number)
            runs_calls.clear()
            inbox = store.drain(pid, round_number, budget)
            assert list(inbox) == reference.drain(pid, round_number, budget), (pid, step)
            if type(inbox) is RowInbox and not runs_calls:
                # The shortcut: one span, exactly the general items.
                assert inbox.items == general, pid
                assert store.cursor[pid] == max(start, before), pid
                if step == 0:
                    took_shortcut.add(pid)
    assert took_shortcut == case.shortcut
