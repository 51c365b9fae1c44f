"""Per-process per-round congestion budgets: spec grammar, sync engine
deferral semantics, async engine windows, and end-to-end enforcement."""

import json
from collections import Counter
from typing import List, Optional

import pytest

from repro import run_protocol
from repro.api import Scenario
from repro.errors import ConfigurationError
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.adversary import FixedSchedule
from repro.sim.congestion import (
    CongestionBudget,
    congestion_from_spec,
    normalize_congestion_spec,
)
from repro.sim.crashes import CrashDirective
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.trace import Trace


# ---- spec grammar ----------------------------------------------------


def test_normalize_accepts_string_dict_and_instance():
    from_string = normalize_congestion_spec("budget:send=4,receive=8")
    from_dict = normalize_congestion_spec(
        {"kind": "budget", "send": 4, "receive": 8}
    )
    from_instance = normalize_congestion_spec(CongestionBudget(send=4, receive=8))
    assert from_string == from_dict == from_instance
    assert from_string == {"kind": "budget", "send": 4, "receive": 8}
    assert normalize_congestion_spec(None) is None


def test_positional_send_shorthand():
    assert normalize_congestion_spec("budget:3") == {"kind": "budget", "send": 3}


def test_congestion_from_spec_builds_budget():
    budget = congestion_from_spec("budget:send=2")
    assert isinstance(budget, CongestionBudget)
    assert budget.send == 2 and budget.receive is None
    assert congestion_from_spec(None) is None


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("traffic-jam:3", "traffic-jam"),  # unknown kind, named
        ("budget:send=0", "0"),  # below minimum, value shown
        ("budget:send=-2", "-2"),
        ("budget:send=lots", "'lots'"),  # junk number, value shown
        ("budget:bandwidth=3", "bandwidth"),  # unknown parameter
        ("budget:", "send"),  # no budget at all names the knobs
        ({"kind": "budget"}, "send"),
        ({"kind": "budget", "receive": 0}, "0"),
        (3, "3"),  # bare numbers are not a spec
    ],
)
def test_malformed_congestion_specs_name_the_offending_value(spec, fragment):
    with pytest.raises(ConfigurationError) as excinfo:
        normalize_congestion_spec(spec)
    assert fragment in str(excinfo.value)


# ---- sync engine semantics -------------------------------------------


class Script(Process):
    """Runs fixed (wake, action) steps and records its inbox per round."""

    def __init__(self, pid, t, steps):
        super().__init__(pid, t)
        self.steps = list(steps)
        self.inboxes = []

    def wake_round(self) -> Optional[int]:
        if self.retired or not self.steps:
            return None
        return self.steps[0][0]

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        self.inboxes.append((round_number, list(inbox)))
        if self.steps and self.steps[0][0] <= round_number:
            _, action = self.steps.pop(0)
            return action
        return Action.idle()


def pings(count):
    """One broadcast from pid 0 to the ``count`` receivers ``1..count``."""
    return Action(sends=Broadcast(range(1, count + 1), ("ping",), MessageKind.CONTROL))


def burst(count):
    """Pid 0 pings ``count`` receivers at round 0; returns (sender, receivers)."""
    t = count + 1
    sender = Script(0, t, [(0, pings(count)), (10, Action.halting())])
    receivers = [Script(pid, t, [(100, Action.halting())]) for pid in range(1, t)]
    return sender, receivers


def arrivals(script):
    """round -> number of envelopes the script received that round."""
    return {r: len(inbox) for r, inbox in script.inboxes if inbox}


def total_arrivals(scripts):
    """round -> number of envelopes all ``scripts`` received that round."""
    totals = {}
    for script in scripts:
        for r, count in arrivals(script).items():
            totals[r] = totals.get(r, 0) + count
    return totals


def test_send_budget_spreads_a_burst_over_rounds():
    sender, receivers = burst(5)
    engine = Engine([sender] + receivers, congestion=CongestionBudget(send=2))
    engine.run()
    # 5 copies at budget 2 depart over rounds 0,1,2 and land 1,2,3.
    assert total_arrivals(receivers) == {1: 2, 2: 2, 3: 1}


def test_send_budget_of_one_serializes_everything():
    sender, receivers = burst(3)
    engine = Engine([sender] + receivers, congestion=CongestionBudget(send=1))
    engine.run()
    assert total_arrivals(receivers) == {1: 1, 2: 1, 3: 1}


def test_receive_budget_throttles_fan_in():
    ping = Action(sends=Broadcast((3,), ("ping",), MessageKind.CONTROL))
    senders = [
        Script(pid, 4, [(0, ping), (10, Action.halting())])
        for pid in range(3)
    ]
    receiver = Script(3, 4, [(100, Action.halting())])
    engine = Engine(
        senders + [receiver], congestion=CongestionBudget(receive=1)
    )
    engine.run()
    # Three same-round copies drain one per round.
    assert arrivals(receiver) == {1: 1, 2: 1, 3: 1}


def test_deferred_sends_survive_the_senders_crash():
    sender, receivers = burst(4)
    engine = Engine(
        [sender] + receivers,
        congestion=CongestionBudget(send=1),
        adversary=FixedSchedule([CrashDirective(pid=0, at_round=1)]),
    )
    engine.run()
    # The wire already holds all four copies; the crash at round 1 kills
    # the sender, not its in-flight backlog.
    assert total_arrivals(receivers) == {1: 1, 2: 1, 3: 1, 4: 1}


class RecoveringScript(Script):
    """Script that accepts crash-recover faults; its "checkpoint" is the
    remaining step list, which the crash never touched."""

    supports_recovery = True

    def __init__(self, pid, t, steps):
        super().__init__(pid, t, steps)
        self.recovered_at = None

    def on_recover(self, round_number: int) -> None:
        self.recovered_at = round_number


def test_deferred_broadcast_segment_reaches_a_crash_recovered_recipient():
    # Budget 1 splits the broadcast {1,2,3} into per-round segments
    # 0:{1}, 1:{2}, 2:{3}.  Pid 3 crashes at round 0 and rejoins at
    # round 1 - strictly before its segment flushes at round 2 - so the
    # flush-time liveness restriction must see it alive again and
    # deliver its copy, not treat the crash-instant state as final.
    sender = Script(
        0,
        4,
        [
            (0, Action(sends=Broadcast([1, 2, 3], "hello", MessageKind.CONTROL))),
            (10, Action.halting()),
        ],
    )
    receivers = [
        RecoveringScript(pid, 4, [(100, Action.halting())]) for pid in (1, 2, 3)
    ]
    engine = Engine(
        [sender] + receivers,
        congestion=CongestionBudget(send=1),
        adversary=FixedSchedule(
            [CrashDirective(pid=3, at_round=0, recover_after=1)]
        ),
    )
    engine.run()
    one, two, three = receivers
    assert three.recovered_at == 1
    assert arrivals(one) == {1: 1}
    assert arrivals(two) == {2: 1}
    # Flushed at round 2 (post-rejoin), landed at round 3.
    assert arrivals(three) == {3: 1}
    (envelope,) = [env for _, inbox in three.inboxes for env in inbox]
    assert envelope.src == 0 and envelope.payload == "hello"
    assert envelope.sent_round == 2


def test_uncongested_engine_unchanged_by_none_budget():
    def run(congestion):
        sender, receivers = burst(5)
        Engine([sender] + receivers, congestion=congestion).run()
        return total_arrivals(receivers)

    assert run(None) == {1: 5}
    assert run(congestion_from_spec("budget:send=8")) == {1: 5}  # under budget


# ---- end-to-end enforcement ------------------------------------------


def test_protocol_send_trace_never_exceeds_budget():
    budget = 2
    trace = Trace(enabled=True)
    result = run_protocol(
        "D", 40, 8, seed=7, congestion=f"budget:send={budget}", trace=trace
    )
    assert result.completed
    per_round_src = Counter(
        (event.round, event.pid) for event in trace.of_kind("send")
    )
    assert per_round_src  # the run did send messages
    assert max(per_round_src.values()) <= budget


def test_congestion_slows_but_preserves_completion():
    free = run_protocol("D", 40, 8, seed=7)
    jammed = run_protocol("D", 40, 8, seed=7, congestion="budget:send=1")
    assert free.completed and jammed.completed
    assert jammed.metrics.rounds > free.metrics.rounds
    # Every unit still gets done.
    assert jammed.metrics.work_by_unit.keys() == free.metrics.work_by_unit.keys()


def test_congested_runs_deterministic_under_seed():
    def run():
        return Scenario(
            protocol="D",
            n=48,
            t=6,
            seed=13,
            adversary="random:2,max_action_index=8",
            congestion="budget:send=2,receive=4",
        ).run()

    first, second = run(), run()
    assert first.metrics.as_dict() == second.metrics.as_dict()


def test_congestion_scenario_json_round_trip_reproduces_metrics():
    scenario = Scenario(
        protocol="D", n=48, t=6, seed=5, congestion="budget:send=2,receive=4"
    )
    data = scenario.to_dict()
    assert data["congestion"] == {"kind": "budget", "send": 2, "receive": 4}
    clone = Scenario.from_dict(json.loads(json.dumps(data)))
    assert scenario.run().metrics.as_dict() == clone.run().metrics.as_dict()


# ---- async engine ----------------------------------------------------


def test_async_congestion_completes_and_is_deterministic():
    def run(congestion):
        return Scenario(
            protocol="A-async",
            n=64,
            t=8,
            seed=5,
            congestion=congestion,
        ).run()

    first = run("budget:send=2,receive=3")
    second = run("budget:send=2,receive=3")
    assert first.completed
    assert first.metrics.as_dict() == second.metrics.as_dict()


def test_async_congestion_changes_the_schedule():
    free = Scenario(protocol="A-async", n=64, t=8, seed=5).run()
    jammed = Scenario(
        protocol="A-async", n=64, t=8, seed=5, congestion="budget:send=1"
    ).run()
    assert free.completed and jammed.completed
    assert free.metrics.as_dict() != jammed.metrics.as_dict()
