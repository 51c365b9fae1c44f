"""The agreement fold equals the python-int fold, fold by fold.

Each case posts D or D-dynamic agreement payloads into the delivery
store, drains recipients and asserts that the fold (``_fold``) returns
exactly what the python-int fold (``_fold_messages``) returns over the same
inboxes' envelopes: views, heard mask and adopted payload.  With the
fan-out threshold at 1 every broadcast of a case is a row, and every
case names the path the fold must take - the round-shared window or the
fallback to the python-int fold - read off the window cache's counters,
so a shape meant for the shared path cannot quietly fall back (and a
shape that breaks one of its rules cannot quietly take it).  At the
store's own threshold the narrower broadcasts go to lanes, and only the
results are compared.

The engagement test runs a whole Protocol D execution on the store and
on the list-per-recipient reference store, and checks that every fold
of its failure-free phases was shared.

On a divergence the failing case is written to ``fuzz-reproducer.json``
(the CI fuzz-smoke step uploads it).
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

import pytest

from repro.api import Scenario
from repro.core.agreement_fold import SharedWindows, _fold, _fold_messages, work_share
from repro.core.protocol_d import ProtocolDProcess
from repro.core.protocol_d_dynamic import DynamicProtocolDProcess
from repro.sim import columnar
from repro.sim.actions import MessageKind
from repro.sim.bitset import IntBitset
from repro.sim.columnar import ColumnarMailboxes, RowInbox
from repro.sim.trace import Trace
from tests.reference_store import reference_engine

REPRODUCER_PATH = Path("fuzz-reproducer.json")

LAYOUTS = {
    "D": ProtocolDProcess.layout,
    "D-dynamic": DynamicProtocolDProcess.layout,
}


class Post(NamedTuple):
    stamp: int
    src: int
    key: int
    flag: bool
    #: Recipient pids; ``None`` addresses everyone but the sender.
    to: Optional[frozenset] = None
    #: Post one lane envelope per recipient instead of a broadcast.
    lane: bool = False


@dataclasses.dataclass
class Case:
    name: str
    t: int
    n: int
    posts: List[Post]
    #: ``(round, receive budget)`` per drain; each non-empty drain is
    #: one buffered inbox.
    drains: List[Tuple[int, Optional[int]]]
    key: int
    #: Which path every fold of the case takes.
    path: str
    recipients: Optional[List[int]] = None
    #: The recipient's snapshot; ``None`` means every pid.
    snapshot: Optional[frozenset] = None
    #: Recipients still in another phase: they fold with ``key + 1``,
    #: which matches no message, so they always take the python-int fold.
    lagging: frozenset = frozenset()


def _round(stamp, senders, key=1, flagged=(), to=None):
    return [
        Post(stamp, src, key, src in flagged, None if to is None else to.get(src))
        for src in senders
    ]


def _cases() -> List[Case]:
    t, n = 8, 40
    everyone = list(range(t))
    late = [(6, None)]
    return [
        # ---- shapes the shared window folds --------------------------
        Case("R=W (self-addressed own row)", t, n,
             _round(5, everyone, to={src: frozenset(everyone) for src in everyone}),
             late, 1, "shared"),
        Case("R=W minus own row", t, n, _round(5, everyone), late, 1, "shared"),
        Case("own row absent", t, n, _round(5, everyone[1:]), late, 1, "shared",
             recipients=[0]),
        Case("own row absent, one row missing", t, n,
             _round(5, everyone[1:], to={3: frozenset({1, 2, 4})}), late, 1, "shared",
             recipients=[0]),
        Case("recipient outside its own snapshot", t, n, _round(5, everyone), late, 1,
             "shared", snapshot=frozenset({1, 2, 5, 6})),
        Case("empty admitted set", t, n, _round(5, everyone), late, 1, "shared",
             snapshot=frozenset()),
        Case("one-row window", t, n, _round(5, [3]), late, 1, "shared",
             recipients=[0, 5, 7]),
        Case("multi-word T and S", 130, 200, _round(5, range(130)), late, 1, "shared",
             recipients=[0, 63, 64, 65, 129]),
        Case("a recipient of another phase between two", t, n, _round(5, everyone),
             late, 1, "shared", recipients=[0, 1, 2], lagging=frozenset({1})),
        Case("older inbox of another key", t, n,
             _round(2, everyone, key=0, flagged=everyone) + _round(5, everyone),
             [(3, None), (6, None)], 1, "shared"),
        Case("one row missing, its sender outside the snapshot", t, n,
             _round(5, everyone[1:], to={3: frozenset({1, 2, 4})}), late, 1, "shared",
             recipients=[0], snapshot=frozenset(everyone) - {3}),
        Case("own row received, a row missing from outside the snapshot", t, n,
             _round(5, everyone, to={3: frozenset({1, 2, 4}), 5: frozenset(everyone)}),
             late, 1, "shared", recipients=[5], snapshot=frozenset(everyone) - {3}),
        Case("recipients alternating between two segments", t, n,
             _round(4, everyone, to={src: frozenset(everyone[:4]) - {src} for src in everyone})
             + _round(5, everyone, to={src: frozenset(everyone[4:]) - {src} for src in everyone}),
             late, 1, "shared", recipients=[0, 4, 1, 5, 2, 6, 3, 7]),
        Case("older segment whose only same-key row is the recipient's own", t, n,
             _round(2, everyone[:3], key=0, flagged=everyone) + _round(2, [3], flagged={3})
             + _round(2, everyone[4:], key=0, flagged=everyone) + _round(5, everyone),
             [(3, None), (6, None)], 1, "shared", recipients=[3]),
        # ---- every rule broken: the python-int fold -------------------
        Case("flagged row", t, n, _round(5, everyone, flagged={4}), late, 1, "fallback"),
        Case("duplicate src", t, n,
             _round(5, [0, 1, 2, 3]) + _round(5, [3, 4, 5, 6, 7]), late, 1, "fallback"),
        Case("crash-censored broadcast", t, n,
             _round(5, everyone, to={2: frozenset({0, 1})}), late, 1,
             "fallback", recipients=[3, 4, 5, 6, 7]),
        Case("two crash-censored broadcasts", t, n,
             _round(5, everyone, to={2: frozenset({0, 1}), 6: frozenset({0, 3})}), late, 1,
             "fallback", recipients=[4, 5, 7]),
        Case("own row received, another row missing", t, n,
             _round(5, everyone, to={src: frozenset(everyone) - ({0} if src == 3 else set())
                                     for src in everyone}),
             late, 1, "fallback", recipients=[0]),
        Case("mixed keys in one stamp", t, n,
             _round(5, everyone[:4]) + _round(5, everyone[4:], key=2), late, 1, "fallback"),
        Case("rows across two stamps", t, n,
             _round(4, everyone) + _round(5, everyone), [(6, None)], 1, "fallback"),
        Case("older inbox of the same key", t, n,
             _round(4, everyone) + _round(5, everyone), [(5, None), (6, None)], 1,
             "fallback"),
        Case("older inbox with a same-key lane entry", t, n,
             _round(2, everyone, key=0, flagged=everyone)
             + [Post(2, 4, 1, False, frozenset(everyone) - {4}, lane=True)]
             + _round(5, everyone),
             [(3, None), (6, None)], 1, "fallback", recipients=[0, 3, 5, 7]),
        Case("older span over two segments, the second of the same key", t, n,
             _round(2, everyone, key=0, flagged=everyone) + _round(3, everyone)
             + _round(5, everyone),
             [(4, None), (6, None)], 1, "fallback"),
        Case("receive-budget split", t, n, _round(5, everyone), [(6, 3)], 1, "fallback"),
    ]


CASES = _cases()


def _payload(layout, key, flag, rng, widths):
    payload = [None] * (layout.flag + 1)
    payload[0] = key
    payload[layout.flag] = flag
    for (index, _, _), width in zip(layout.fields, widths):
        payload[index] = IntBitset(rng.getrandbits(width * 64)).freeze()
    return tuple(payload)


def _widths(layout, t, n):
    words_t = max(1, (t + 63) >> 6)
    words_n = (n + 64) >> 6
    return (words_n,) * (len(layout.fields) - 1) + (words_t,)


def _expected(inboxes, key, layout, admitted_from, views):
    """The python-int fold over the inboxes' envelopes, in order."""
    envelopes = [envelope for inbox in inboxes for envelope in inbox]
    return _fold_messages(envelopes, key, layout, admitted_from, views)


def _fold_case(case: Case, protocol: str, seed: int = 0):
    """Fold every recipient both ways; return ``(shared, fallback)``."""
    layout = LAYOUTS[protocol]
    widths = _widths(layout, case.t, case.n)
    rng = random.Random(seed)
    store = ColumnarMailboxes(case.t)
    everyone = (1 << case.t) - 1
    for post in case.posts:
        if post.to is None:
            mask = everyone & ~(1 << post.src)
        else:
            mask = sum(1 << pid for pid in post.to)
        payload = _payload(layout, post.key, post.flag, rng, widths)
        if post.lane:
            for dst in sorted(post.to):
                store.post_p2p(post.src, dst, payload, MessageKind.AGREEMENT, post.stamp)
        else:
            store.post_broadcast(post.src, payload, MessageKind.AGREEMENT, post.stamp, mask)
    recipients = case.recipients if case.recipients is not None else range(case.t)
    for pid in recipients:
        inboxes = [store.drain(pid, rnd, budget) for rnd, budget in case.drains]
        inboxes = [inbox for inbox in inboxes if inbox]
        snapshot = everyone if case.snapshot is None else sum(1 << p for p in case.snapshot)
        admitted_from = snapshot & ~(1 << pid)
        own = [rng.getrandbits(width * 64) for width in widths]
        expected_views, got_views = list(own), list(own)
        key = case.key + 1 if pid in case.lagging else case.key
        expected = _expected(inboxes, key, layout, admitted_from, expected_views)
        got = _fold(inboxes, key, pid, layout, admitted_from, got_views)
        if (got, got_views) != (expected, expected_views):
            REPRODUCER_PATH.write_text(json.dumps(
                {"case": case.name, "protocol": protocol, "seed": seed, "pid": pid},
                indent=2, sort_keys=True,
            ))
            raise AssertionError(f"{case.name} ({protocol}): fold of pid {pid} diverged")
    windows = store.cache(layout.cache_name, SharedWindows)
    return windows.shared, windows.fallback


@pytest.mark.parametrize("protocol", sorted(LAYOUTS))
@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_word_fold_equals_int_fold(case, protocol, monkeypatch):
    monkeypatch.setattr(columnar, "WIDE_FANOUT", 1)
    folds = len(case.recipients) if case.recipients is not None else case.t
    lagging = len(case.lagging)
    for seed in range(3):
        shared, fallback = _fold_case(case, protocol, seed)
        if case.path == "shared":
            assert (shared, fallback) == (folds - lagging, lagging)
        else:
            assert (shared, fallback) == (0, folds)


@pytest.mark.parametrize("protocol", sorted(LAYOUTS))
@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_fold_equals_int_fold_with_narrow_broadcasts_in_lanes(case, protocol):
    for seed in range(3):
        _fold_case(case, protocol, seed)


# ---- a whole run: engagement and bit-identity ---------------------------


def _recording_stores(monkeypatch) -> list:
    stores = []
    original = ColumnarMailboxes.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        stores.append(self)

    monkeypatch.setattr(ColumnarMailboxes, "__init__", recording)
    return stores


def _observed(scenario: Scenario):
    trace = Trace(enabled=True)
    result = scenario.run(trace=trace)
    return result.metrics.as_dict(full=True), list(trace.events)


def test_failure_free_phases_fold_through_the_shared_window(monkeypatch):
    rng = random.Random(15)
    scenario = Scenario(
        protocol="D", n=1024, t=256, seed=3,
        adversary={
            "kind": "fixed-schedule",
            "directives": [{"pid": pid, "at_round": 2} for pid in rng.sample(range(256), 16)],
        },
    )
    stores = _recording_stores(monkeypatch)
    reads = []
    records = RowInbox.records

    def counted(self):
        reads.append(self.dst)
        return records(self)

    monkeypatch.setattr(RowInbox, "records", counted)
    rows = _observed(scenario)
    monkeypatch.setattr(RowInbox, "records", records)
    assert len(stores) == 1
    windows = stores[0].cache(ProtocolDProcess.layout.cache_name, SharedWindows)
    with reference_engine():
        reference = _observed(scenario)
    if rows != reference:
        REPRODUCER_PATH.write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
        raise AssertionError("the row store and the reference store diverged")
    # The crashes land in the first work phase, so every agreement phase
    # is failure-free: each of its folds must take the shared window
    # (at least two rounds of the 240 survivors agree after the crashes).
    assert windows.fallback == 0
    assert windows.shared >= 2 * (256 - 16)
    # Rule 1 clears the older inboxes by their segments' phase keys, so
    # no fold reads a record.
    assert reads == []


# ---- the shared work partition -------------------------------------------


PARTITIONS = [
    # (pool size, team size, universe): |S| > |T|, |S| == |T|, |S| < |T|,
    # an empty pool, a single member each, pools and teams past one word.
    (40, 8, 48), (8, 8, 64), (3, 8, 64), (0, 8, 16), (1, 1, 4), (300, 130, 600),
    (5, 130, 600), (129, 64, 200),
]


@pytest.mark.parametrize("pool_size,team_size,universe", PARTITIONS)
def test_shared_partition_equals_select_for_every_rank(pool_size, team_size, universe):
    rng = random.Random(pool_size * 1000 + team_size)
    pool = IntBitset.from_iterable(rng.sample(range(1, universe + 1), pool_size))
    team = IntBitset.from_iterable(rng.sample(range(universe), team_size))
    per = -(-pool_size // team_size)
    store = ColumnarMailboxes(universe)
    for round_number in (7, 8):
        for pid in team:
            expected = pool.select(team.count_below(pid) * per, per)
            assert work_share(store, pool, team, pid, per, round_number) == expected, pid
            assert work_share(None, pool, team, pid, per, round_number) == expected, pid
        # The cache holds one round's partitions: one, as every pid of
        # this round decided the same (pool, team).
        partitions = store.cache("work-partition", lambda: None)
        assert partitions.round == round_number and len(partitions.by_pair) == 1
