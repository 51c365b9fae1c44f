"""Randomized differential fuzz harness: row store == list-store reference.

The sync engine's delivery store (``repro.sim.columnar``: a shared row
log for wide broadcasts, per-recipient lanes for the rest) claims
*bit-identical* behaviour to the plainest store, one envelope list per
recipient (``tests/reference_store.py``) - same full metrics payloads,
same trace event streams, same RNG draw order - under every protocol
and fault kind.  This harness is the pin for that claim: a seeded
stdlib ``random`` generator (no hypothesis) draws ~200 scenario configs
across all registered sync protocols x adversary specs (crash-recover,
rack, cascade-neighbours, congestion budgets included) and runs each
twice, on the engine and on the engine over the reference store,
asserting equality of ``Metrics.as_dict(full=True)``, the trace stream
and the run outcome.

A second, fixed slice draws D-family configs with ``t`` in 65..130,
where recipient masks and pid sets span more than one 64-bit word.  A
third, fixed slice draws D and D-recovery configs with ``n`` in 65..300
as well, so both of Protocol D's view fields (outstanding units and
known-correct pids) span more than one word in the agreement fold.  A
fourth slice lowers the fan-out threshold, so small runs put most
broadcasts in rows and the rest in lanes under receive budgets: every
drain that merges the two kinds, and every budget cut through a merge,
is compared with the reference.

Each slice counts, per protocol, the configs that ran on both stores
(a config that raises on both counts as not run: it exercises nothing)
and fails when any protocol's runnable share drops below
:data:`RUNNABLE_FLOOR`, so a generator that drifts into configs one
protocol rejects cannot hide behind the others.

On failure the reproducer ``Scenario`` JSON is printed in the assertion
message and written to ``fuzz-reproducer.json`` (the CI fuzz-smoke step
uploads it as an artifact).

Environment knobs (for CI pinning and local soak runs):

* ``REPRO_FUZZ_SEED``  - generator seed (default 20260808).
* ``REPRO_FUZZ_COUNT`` - number of scenarios (default 200).
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.sim import columnar
from repro.sim.trace import Trace
from tests.reference_store import reference_engine

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260808"))
COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "200"))

REPRODUCER_PATH = Path("fuzz-reproducer.json")

#: The multi-word slice: a fixed seed and size, independent of the knobs.
WIDE_SEED = 12
WIDE_COUNT = 12

#: The multi-word view slice (units and pids both past one word).
WIDE_VIEWS_SEED = 15
WIDE_VIEWS_COUNT = 8

#: The merge slice: small runs with every config under a receive
#: budget, at fan-out thresholds that put broadcasts in rows and lanes.
MERGE_SEED = 21
MERGE_COUNT = 60

#: Per slice, the least share of each protocol's configs that must run
#: (not raise) on both stores.
RUNNABLE_FLOOR = 0.75

#: Every sync protocol in the registry (the async engine has its own
#: delivery path).
PROTOCOLS = (
    "A", "B", "C", "C-batched", "C-naive", "D", "D-dynamic", "D-recovery",
    "naive", "replicate",
)


def _adversary_for(rng: random.Random, protocol: str, t: int):
    """A random adversary spec valid for ``protocol`` (crash counts stay
    below t so no config needs allow_total_failure)."""
    budget = max(1, min(t - 1, rng.randint(1, 3)))
    if protocol == "D-recovery" and rng.random() < 0.7:
        # The recovery protocol is the only one accepting rejoin faults.
        kind = rng.choice(
            ("crash-recover", "crash-recover", "rack-recover", "cascade-recover")
        )
        if kind == "crash-recover":
            return (
                f"crash-recover:{budget},repair_delay={rng.randint(1, 4)}"
            )
        if kind == "rack-recover":
            return {
                "kind": "rack",
                "racks": 1,
                "group_size": budget,
                "recover_after": rng.randint(1, 4),
            }
        return {
            "kind": "cascade-neighbours",
            "origins": 1,
            "p": rng.choice((0.3, 0.7)),
            "budget": budget,
            "recover_after": rng.randint(1, 4),
        }
    roll = rng.random()
    if roll < 0.25:
        return None
    if roll < 0.55:
        spec = f"random:{budget}"
        if rng.random() < 0.5:
            spec += f",max_action_index={rng.randint(5, 30)}"
        return spec
    if roll < 0.70:
        return f"kill-active:{budget}"
    if roll < 0.85:
        return {"kind": "rack", "racks": 1, "group_size": budget}
    return {
        "kind": "cascade-neighbours",
        "origins": 1,
        "p": rng.choice((0.3, 0.7)),
        "budget": budget,
    }


def _random_config(rng: random.Random, sizes: str = "small") -> dict:
    """One random config of a slice: ``sizes`` is ``"small"`` (every
    sync protocol), ``"wide"`` (multi-word pid masks) or ``"wide_views"``
    (multi-word pid and unit sets)."""
    if sizes == "wide_views":
        protocol = rng.choice(("D", "D-recovery"))
        t = rng.randint(65, 130)
        n = rng.randint(65, 300)
    elif sizes == "wide":
        protocol = rng.choice(("D", "D-dynamic", "D-recovery"))
        t = rng.randint(65, 130)
        n = rng.randint(8, 64)
    else:
        assert sizes == "small", sizes
        protocol = rng.choice(PROTOCOLS)
        # C's deadlines are exponential in n + t; keep its universe tiny
        # so the suite stays fast (fast-forward keeps the wall time
        # bounded, but the message volume still grows quickly).
        if protocol in ("C", "C-batched", "C-naive"):
            t = rng.randint(2, 4)
            n = rng.randint(4, 12)
        else:
            t = rng.randint(2, 10)
            n = rng.randint(4, 40)
    config: dict = {"protocol": protocol, "n": n, "t": t, "seed": rng.randint(0, 10**6)}
    adversary = _adversary_for(rng, protocol, t)
    if adversary is not None:
        config["adversary"] = adversary
    if rng.random() < 0.3:
        send = rng.randint(2, 6)
        receive = rng.randint(2, 8)
        config["congestion"] = f"budget:send={send},receive={receive}"
    options: dict = {}
    if protocol == "D" and rng.random() < 0.3:
        options["revert_threshold"] = rng.choice((0.3, 0.5, 0.9))
    if protocol == "D-dynamic":
        if rng.random() < 0.5:
            batches = rng.randint(1, 3)
            per_batch, remainder = divmod(n, batches)
            counts = [per_batch] * batches
            counts[0] += remainder
            gap = rng.randint(1, 6)
            spec = ",".join(
                f"{index * gap}x{count}"
                for index, count in enumerate(counts)
                if count
            )
            options["schedule"] = f"arrivals:{spec}"
        if rng.random() < 0.5:
            options["cycle_length"] = rng.randint(4, 12)
    if protocol == "naive" and rng.random() < 0.5:
        options["interval"] = rng.randint(1, 5)
    if options:
        config["options"] = options
    return config


def _assert_ledger_consistent(scenario: Scenario, result) -> None:
    """The run's work ledger agrees with its completion verdict."""
    done = result.metrics.work_by_unit
    assert all(1 <= unit <= scenario.n for unit in done), (
        f"units outside 1..{scenario.n} booked: {sorted(done)}"
    )
    assert result.completed == (len(done) == scenario.n)
    # A survivor finishes the pool, except under D-dynamic, whose
    # arrivals at crashed sites are legitimately lost.
    if result.survivors >= 1 and scenario.protocol.lower() != "d-dynamic":
        assert result.completed, f"incomplete run with {result.survivors} survivors"


def write_reproducer(seed: int, index: int, config: dict) -> str:
    """Write a diverging config to :data:`REPRODUCER_PATH`; return its
    one-line Scenario JSON for the assertion message."""
    REPRODUCER_PATH.write_text(
        json.dumps({"seed": seed, "index": index, "scenario": config}, indent=2, sort_keys=True)
    )
    return json.dumps(config, sort_keys=True)


def _run(scenario: Scenario):
    """One run's full observable state (or the error it raised)."""
    trace = Trace(enabled=True)
    try:
        result = scenario.run(trace=trace)
    except Exception as error:  # noqa: BLE001 - compared across stores
        return {"error": type(error).__name__, "message": str(error)}
    _assert_ledger_consistent(scenario, result)
    return {
        "metrics": result.metrics.as_dict(full=True),
        "trace": list(trace.events),
        "completed": result.completed,
        "survivors": result.survivors,
        "halted": result.halted,
    }


def _assert_stores_agree(seed: int, configs) -> int:
    """Run every config on both stores; return how many ran to completion.

    Fails when a protocol's configs ran on less than
    :data:`RUNNABLE_FLOOR` of its draws."""
    drawn: Counter = Counter()
    ran: Counter = Counter()
    for index, config in enumerate(configs):
        scenario = Scenario.from_dict(config)
        rows = _run(scenario)
        with reference_engine():
            reference = _run(scenario)
        if rows != reference:
            raise AssertionError(
                f"store divergence at scenario {index} (seed {seed}); "
                f"reproducer Scenario JSON: {write_reproducer(seed, index, config)}"
            )
        drawn[config["protocol"]] += 1
        if "error" not in reference:
            ran[config["protocol"]] += 1
    starved = {
        protocol: f"{ran[protocol]}/{count}"
        for protocol, count in sorted(drawn.items())
        if ran[protocol] < RUNNABLE_FLOOR * count
    }
    assert not starved, (
        f"seed {seed}: configs that ran, per protocol, below the floor of "
        f"{RUNNABLE_FLOOR:.0%}: {starved}; the generator draws configs these "
        "protocols reject"
    )
    return sum(ran.values())


def test_differential_fuzz_row_store_bit_identical():
    rng = random.Random(SEED)
    exercised = _assert_stores_agree(SEED, [_random_config(rng) for _ in range(COUNT)])
    # The generator must mostly produce *runnable* configs - a harness
    # where everything errors out symmetrically would prove nothing.
    assert exercised >= COUNT * 3 // 4, (
        f"only {exercised}/{COUNT} scenarios ran to completion; "
        "the generator drifted into degenerate configs"
    )


def test_multi_word_masks_row_store_bit_identical():
    rng = random.Random(WIDE_SEED)
    configs = [_random_config(rng, "wide") for _ in range(WIDE_COUNT)]
    assert _assert_stores_agree(WIDE_SEED, configs) == WIDE_COUNT


def test_multi_word_views_row_store_bit_identical():
    rng = random.Random(WIDE_VIEWS_SEED)
    configs = [_random_config(rng, "wide_views") for _ in range(WIDE_VIEWS_COUNT)]
    assert _assert_stores_agree(WIDE_VIEWS_SEED, configs) == WIDE_VIEWS_COUNT


@pytest.mark.parametrize("wide", [1, 2])
def test_rows_lanes_and_receive_budgets_together_bit_identical(wide, monkeypatch):
    monkeypatch.setattr(columnar, "WIDE_FANOUT", wide)
    rng = random.Random(MERGE_SEED)
    configs = []
    for _ in range(MERGE_COUNT):
        config = _random_config(rng)
        config["congestion"] = (
            f"budget:send={rng.randint(2, 6)},receive={rng.randint(1, 4)}"
        )
        configs.append(config)
    assert _assert_stores_agree(MERGE_SEED, configs) >= MERGE_COUNT * 3 // 4


def test_a_protocol_whose_configs_all_raise_fails_the_floor():
    """The floor is per protocol: configs of one protocol that raise on
    both stores fail the slice even when the global share is high."""
    rejected = {"protocol": "D-recovery", "n": 8, "t": 4, "seed": 1,
                "options": {"revert_threshold": 0.5}}
    runnable = {"protocol": "A", "n": 8, "t": 4, "seed": 1}
    with pytest.raises(AssertionError, match=r"D-recovery': '0/2'"):
        _assert_stores_agree(0, [rejected] * 2 + [runnable] * 10)
