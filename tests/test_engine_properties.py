"""Property-based tests of the engine's delivery semantics.

The invariants the protocols rely on:
* a message is never visible to decisions at or before its stamp round;
* every message sent to a recipient that is alive at delivery time is
  delivered exactly once;
* fast-forward is transparent: a process that declared a wake round is
  stepped at exactly that round (or earlier, by mail);
* metrics account every send exactly once.
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.actions import Action, Broadcast, Envelope, MessageKind
from repro.sim.engine import Engine
from repro.sim.process import Process


class Chatter(Process):
    """Sends a scripted series of (round, dst) messages, one broadcast per
    round to that round's destinations; logs receipts."""

    def __init__(self, pid, t, sends, stop_round):
        super().__init__(pid, t)
        self.sends = sorted(sends)  # list of (round, dst)
        self.stop_round = stop_round
        self.received: List[Envelope] = []
        self.acted_rounds: List[int] = []

    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        if self.sends:
            return min(self.sends[0][0], self.stop_round)
        return self.stop_round

    def on_round(self, round_number, inbox):
        self.acted_rounds.append(round_number)
        self.received.extend(inbox)
        dsts = []
        while self.sends and self.sends[0][0] <= round_number:
            dsts.append(self.sends.pop(0)[1])
        outgoing = (
            Broadcast(dsts, ("msg", self.pid, round_number), MessageKind.CONTROL)
            if dsts
            else None
        )
        return Action(
            sends=outgoing, halt=(round_number >= self.stop_round and not self.sends)
        )


@st.composite
def chatter_configs(draw):
    t = draw(st.integers(min_value=2, max_value=6))
    stop = draw(st.integers(min_value=5, max_value=40))
    plans = []
    for pid in range(t):
        # Distinct (round, dst) pairs: a round's destinations form one
        # broadcast, which reaches each recipient once.
        plan = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=stop - 1),
                    st.integers(min_value=0, max_value=t - 1),
                ),
                max_size=6,
                unique=True,
            )
        )
        plans.append(plan)
    return t, stop, plans


@settings(max_examples=40, deadline=None)
@given(chatter_configs())
def test_messages_never_arrive_early_and_count_once(config):
    t, stop, plans = config
    processes = [Chatter(pid, t, plans[pid], stop) for pid in range(t)]
    engine = Engine(processes)
    result = engine.run()
    total_sent = sum(len(plan) for plan in plans)
    assert result.metrics.messages_total == total_sent
    received_total = 0
    for process in processes:
        for envelope in process.received:
            # Visibility rule: processed strictly after the stamp round.
            assert envelope.sent_round < max(process.acted_rounds)
        received_total += len(process.received)
    # Everyone halts at `stop` >= every send round, so nothing is lost.
    assert received_total == total_sent


@settings(max_examples=40, deadline=None)
@given(chatter_configs())
def test_acted_rounds_are_strictly_increasing(config):
    t, stop, plans = config
    processes = [Chatter(pid, t, plans[pid], stop) for pid in range(t)]
    Engine(processes).run()
    for process in processes:
        rounds = process.acted_rounds
        assert rounds == sorted(set(rounds))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=1, max_value=10**5),
)
def test_wake_round_is_honoured_exactly(first_wake, gap):
    class Sleeper(Process):
        def __init__(self):
            super().__init__(0, 1)
            self.wakes = [first_wake, first_wake + gap]
            self.seen = []

        def wake_round(self):
            if self.retired or not self.wakes:
                return None
            return self.wakes[0]

        def on_round(self, round_number, inbox):
            self.seen.append(round_number)
            self.wakes.pop(0)
            return Action(halt=not self.wakes)

    sleeper = Sleeper()
    Engine([sleeper]).run()
    assert sleeper.seen == [first_wake, first_wake + gap]


def test_message_to_self_is_delivered_next_round():
    class SelfSender(Process):
        def __init__(self):
            super().__init__(0, 1)
            self.got = []

        def wake_round(self):
            return None if (self.retired or self.got) else 0

        def on_round(self, round_number, inbox):
            self.got.extend(inbox)
            if round_number == 0:
                return Action(sends=Broadcast((0,), ("loop",), MessageKind.CONTROL))
            return Action(halt=True)

    process = SelfSender()
    Engine([process]).run()
    assert len(process.got) == 1
    assert process.got[0].sent_round == 0
