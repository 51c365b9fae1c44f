"""Which path a broadcast takes through the delivery store.

A broadcast reaching at least ``min(WIDE_FANOUT, t // 2)`` live
recipients becomes one row of the shared log; narrower ones (and all
point-to-point mail) go to the recipients' lanes.  The rule depends on
the run alone: the engine holds one store, and ``Scenario.fastpath`` is
accepted but selects nothing.
"""

import pytest

from repro.api import Scenario
from repro.core.registry import build_processes
from repro.sim.actions import Action, Broadcast, MessageKind
from repro.sim.columnar import WIDE_FANOUT, ColumnarMailboxes
from repro.sim.crashes import CrashDirective, CrashPhase
from repro.sim.engine import Adversary, Engine
from repro.work.tracker import WorkTracker

PATHS = [
    # (protocol, t, threshold, widest live fan-out, its path).  D's
    # agreement broadcasts reach every other process; A's checkpoints
    # reach one group of about sqrt(t).
    ("D", 4, 2, 3, "rows"),
    ("D", 16, 8, 15, "rows"),
    ("D", 32, 16, 31, "rows"),
    ("D", 63, 31, 62, "rows"),
    ("D", 64, 32, 63, "rows"),
    ("D", 128, 64, 127, "rows"),
    ("D", 512, 64, 511, "rows"),
    ("A", 4, 2, 2, "rows"),
    ("A", 16, 8, 4, "lanes"),
    ("A", 32, 16, 6, "lanes"),
    ("A", 63, 31, 8, "lanes"),
    ("A", 64, 32, 8, "lanes"),
    ("A", 128, 64, 12, "lanes"),
    ("A", 512, 64, 23, "lanes"),
]


@pytest.fixture
def posts(monkeypatch) -> list:
    """Every broadcast post of the test as ``(fan-out, path)``."""
    log = []
    original = ColumnarMailboxes.post_broadcast

    def recording(self, src, payload, kind, sent_round, mask):
        rows = len(self.masks)
        original(self, src, payload, kind, sent_round, mask)
        log.append((mask.bit_count(), "rows" if len(self.masks) > rows else "lanes"))

    monkeypatch.setattr(ColumnarMailboxes, "post_broadcast", recording)
    return log


@pytest.mark.parametrize(
    "protocol,t,threshold,widest,path", PATHS, ids=[f"{p}-t{t}" for p, t, *_ in PATHS]
)
def test_broadcast_path_follows_the_fan_out_rule(posts, protocol, t, threshold, widest, path):
    assert min(WIDE_FANOUT, t // 2) == threshold
    assert Scenario(protocol=protocol, n=t, t=t, seed=1).run().completed
    assert posts and max(posts) == (widest, path)
    for fan_out, taken in posts:
        assert taken == ("rows" if fan_out >= threshold else "lanes"), (fan_out, taken)


class _CensorFirstAgreement(Adversary):
    """Crash ``victim`` during its first agreement broadcast, delivering
    only to the ``keep`` lowest-numbered recipients."""

    def __init__(self, victim: int, keep: int):
        self.victim = victim
        self.keep = keep
        self.done = False

    def decide(self, round_number, actions, engine):
        action = actions.get(self.victim, Action.idle())
        sends = action.sends
        if self.done or not isinstance(sends, Broadcast) or sends.kind is not MessageKind.AGREEMENT:
            return []
        self.done = True
        keep = frozenset(sends.dsts()[: self.keep])
        return [CrashDirective(self.victim, round_number, CrashPhase.DURING_SEND, keep)]


@pytest.mark.parametrize("keep,path", [(10, "lanes"), (63, "lanes"), (64, "rows"), (100, "rows")])
def test_censored_d_broadcast_takes_the_path_of_its_live_fan_out(posts, keep, path):
    t = 128
    adversary = _CensorFirstAgreement(victim=5, keep=keep)
    engine = Engine(
        build_processes("D", 4 * t, t), tracker=WorkTracker(4 * t), adversary=adversary
    )
    assert engine.run().completed and adversary.done
    # Every other broadcast of the first agreement round reaches t - 1.
    assert (keep, path) in posts
    assert all(taken == "rows" for fan_out, taken in posts if fan_out >= 64)


def test_the_engine_holds_the_one_store_whatever_fastpath_says():
    assert isinstance(Engine(build_processes("D", 64, 64))._store, ColumnarMailboxes)
    results = [
        Scenario(protocol="D", n=96, t=64, seed=4, adversary="random:8", fastpath=mode).run()
        for mode in ("auto", "on", "off")
    ]
    assert results[0].metrics == results[1].metrics == results[2].metrics


def test_a_halting_team_keeps_its_last_broadcasts_wide(posts):
    """Halts leave the engine's index after the round's posts, so the
    final flagged broadcasts of a D team that halts together still reach
    every recipient the sender addressed: one row each, no lane copies."""
    t = 128
    result = Scenario(protocol="D", n=2 * t, t=t, seed=1).run()
    assert result.completed and result.halted == t
    assert posts and all(taken == "rows" for _, taken in posts)
    assert {fan_out for fan_out, _ in posts} == {t - 1}
