"""Randomized differential fuzz of the async engine: grouped broadcast
delivery == one heap event per message copy.

:class:`~repro.sim.async_engine.AsyncEngine` delivers each broadcast's
copies that share a due instant as one group; ``tests/reference_async.py``'s
``PerCopyAsyncEngine`` schedules every copy on its own.  A seeded stdlib
``random`` generator (no hypothesis) draws ~200 ``A-async`` scenario
configs - n in 1..80, t in 2..12, scheduled crashes with ties at 0.0 and
1.0, uniform and fixed delays (``fixed:0`` included), a failure-detector
window, steps shorter than one budget window, and send, receive or both
congestion budgets - and runs each on
both engines through ``run_logged``, asserting equal
``Metrics.as_dict(full=True)``, work-order logs, handler logs and run
outcomes.  Each result also passes the sync harness's ledger check, and
the engine's result must equal ``Scenario.run()``'s, so the harness
drives the engine exactly as the declarative API does.

On failure the reproducer ``Scenario`` dict is printed in the assertion
message and written to ``fuzz-reproducer.json`` (the CI fuzz-smoke step
uploads it as an artifact).  The knobs are the sync harness's:
``REPRO_FUZZ_SEED`` and ``REPRO_FUZZ_COUNT``.
"""

from __future__ import annotations

import random

from repro.api import Scenario
from repro.core import registry
from repro.sim.async_engine import AsyncEngine, delay_model_from_spec
from repro.sim.congestion import congestion_from_spec
from repro.sim.failure_detector import FailureDetector
from tests.reference_async import PerCopyAsyncEngine, run_logged
from tests.test_differential_fuzz import (
    COUNT,
    SEED,
    _assert_ledger_consistent,
    write_reproducer,
)


def _crash_time(rng: random.Random, horizon: float) -> float:
    roll = rng.random()
    if roll < 0.3:
        return rng.choice((0.0, 1.0))
    if roll < 0.5:
        # Window boundaries, where receive budgets reset.
        return float(rng.randint(0, int(horizon)))
    return round(rng.uniform(0.0, horizon), 3)


def _random_config(rng: random.Random) -> dict:
    n = rng.randint(1, 80)
    t = rng.randint(2, 12)
    config: dict = {"protocol": "A-async", "n": n, "t": t, "seed": rng.randint(0, 10**6)}
    # Mostly fewer than t crashes (the run must complete); now and then
    # every process crashes.
    crashes = t if rng.random() < 0.05 else rng.randint(0, t - 1)
    horizon = 2.0 * n / t + 10.0
    config["crash_times"] = {
        str(pid): _crash_time(rng, horizon) for pid in rng.sample(range(t), crashes)
    }
    roll = rng.random()
    if roll < 0.4:
        low = round(rng.uniform(0.0, 2.0), 2)
        config["delay"] = f"uniform:{low},{round(low + rng.uniform(0.0, 5.0), 2)}"
    else:
        config["delay"] = rng.choice(("fixed:1", "fixed:0.5", "fixed:0"))
    if rng.random() < 0.7:
        low = rng.choice((0.0, 0.5, 1.0, round(rng.uniform(0.0, 4.0), 2)))
        high = rng.choice((low, low + rng.randint(1, 10)))
        config["failure_detector"] = {"min_delay": low, "max_delay": high}
    if rng.random() < 0.5:
        # Several steps per unit window pile copies up against the
        # receive budget.
        config["options"] = {"step_delay": rng.choice((0.5, 0.25, 0.1))}
    roll = rng.random()
    if roll < 0.25:
        config["congestion"] = f"budget:send={rng.randint(1, 4)}"
    elif roll < 0.5:
        config["congestion"] = f"budget:receive={rng.randint(1, 4)}"
    elif roll < 0.75:
        config["congestion"] = (
            f"budget:send={rng.randint(1, 4)},receive={rng.randint(1, 4)}"
        )
    return config


def _run(engine_cls, scenario: Scenario):
    """One run's full observable state on ``engine_cls`` (or the error it
    raised), built the way ``Scenario.run()`` builds the async engine."""
    detector = scenario.failure_detector
    try:
        result, work_log, handler_log = run_logged(
            engine_cls,
            registry.build_processes(
                scenario.protocol, scenario.n, scenario.t, **scenario.options
            ),
            scenario.n,
            seed=scenario.seed,
            delay_model=delay_model_from_spec(scenario.delay),
            failure_detector=None if detector is None else FailureDetector(**detector),
            crash_times=scenario.crash_times,
            max_events=scenario.max_events,
            congestion=congestion_from_spec(scenario.congestion),
        )
    except Exception as error:  # noqa: BLE001 - compared across engines
        return {"error": type(error).__name__, "message": str(error)}
    _assert_ledger_consistent(scenario, result)
    return {
        "metrics": result.metrics.as_dict(full=True),
        "work": work_log,
        "handlers": handler_log,
        "outcome": (result.completed, result.survivors, result.halted),
    }


def test_async_engine_matches_per_copy_reference():
    rng = random.Random(SEED)
    completed = 0
    for index in range(COUNT):
        config = _random_config(rng)
        scenario = Scenario.from_dict(config)
        grouped = _run(AsyncEngine, scenario)
        reference = _run(PerCopyAsyncEngine, scenario)
        agree = grouped == reference and (
            "error" in grouped
            or scenario.run().metrics.as_dict(full=True) == grouped["metrics"]
        )
        if not agree:
            raise AssertionError(
                f"async engine divergence at scenario {index} (seed {SEED}); "
                f"reproducer Scenario JSON: "
                f"{write_reproducer(SEED, index, scenario.to_dict())}"
            )
        if "error" not in grouped and grouped["outcome"][0]:
            completed += 1
    # A harness where most runs error out or stall would prove little.
    assert completed >= COUNT * 3 // 4, (
        f"only {completed}/{COUNT} scenarios completed; "
        "the generator drifted into degenerate configs"
    )
