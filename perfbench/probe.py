"""Host-speed probe: a fixed piece of pure-Python work, timed between
operations, so that times can be stated at a reference host speed.

On a shared host the speed available to one process swings by tens of
percent within minutes (other tenants on the same cores), and that
swing moves every time the benchmark measures.  The probe does the same
work on every call and never touches the program under test, so its
time tracks the host alone.  ``run.py`` multiplies an operation's time
by ``(probe_ref_ms / probe_ms) ** probe_exponent`` (``spec.json``), with
``probe_ms`` the probe's time next to the operation, to state it at the
reference host's speed.  A change to the program moves the operation's
time and not the probe's; a change in the host moves both.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: Probe calls per measurement; the measurement is their median.
CALLS = 3


class _Node:
    __slots__ = ("pid", "done", "inbox")

    def __init__(self, pid: int):
        self.pid = pid
        self.done = 0
        self.inbox = []

    def step(self, round_number: int) -> int:
        self.done += round_number & 3
        if self.inbox:
            self.inbox.pop()
        return self.done


def _work() -> int:
    """Rounds over small objects: method calls, list and dict traffic and
    integer arithmetic, the interpreter work the simulator is made of."""
    rng = random.Random(12345)
    nodes = [_Node(pid) for pid in range(64)]
    table = {}
    total = 0
    for round_number in range(60):
        for node in nodes:
            total += node.step(round_number)
            if rng.random() < 0.3:
                nodes[(node.pid * 7 + round_number) % 64].inbox.append((round_number, node.pid))
            table[(round_number & 15, node.pid)] = total
    return total + len(sorted(table.values()))


def probe_seconds() -> float:
    """Median time of :data:`CALLS` probe calls, with the collector off
    so the program's heap does not charge its collections to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
