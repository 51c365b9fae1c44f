"""Engine-aware protocol registry and the one-call simulation runner.

The classic entry point of the library is :func:`run_protocol`::

    from repro import run_protocol
    from repro.sim.adversary import RandomCrashes

    result = run_protocol("B", n=200, t=16, adversary=RandomCrashes(5), seed=7)
    print(result.metrics.work_total, result.metrics.messages_total)

The declarative entry point - covering asynchronous runs, adversary and
delay-model specs, JSON round-trips and sweeps - is
:class:`repro.api.Scenario`, which resolves protocols through this same
registry.  Each registry entry carries its builder plus *engine
metadata*: which simulator drives it (``sync`` rounds vs ``async``
events) and whether the paper's at-most-one-active invariant applies.

Names are case-insensitive.  Available protocols:

================  ==============================================  ======  ==========
name              description                                     engine  paper ref
================  ==============================================  ======  ==========
``A``             checkpointing, effort O(n + t^1.5)              sync    Section 2.1
``A-async``       A under a failure detector, no rounds           async   Section 2.1
``B``             A + go-ahead polling, time O(n + t)             sync    Section 2.3
``C``             recursive fault detection, O(n + t log t) msgs  sync    Section 3
``C-batched``     C reporting every n/t units, O(t log t) msgs    sync    Cor. 3.9
``C-naive``       knowledge spreading without fault detection     sync    Section 3
``D``             parallel work + agreement phases, time-optimal  sync    Section 4
``D-dynamic``     D with dynamic work arrivals (schedule spec)    sync    Section 4 remark
``D-recovery``    D with per-phase checkpoints + crash-recover    sync    Section 4 ext.
``replicate``     every process does everything                   sync    Section 1
``naive``         single worker, checkpoint-all every k units     sync    Sections 1-2
================  ==============================================  ======  ==========

``D-dynamic`` takes its workload from a declarative *schedule spec*
(builder option ``schedule``, e.g. ``"arrivals:0x8,3x4"``; see
:mod:`repro.sim.specs`), so dynamic-arrival runs are addressable from
scenarios, sweeps and suites like every other protocol.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.adversary import AdversarySpec, adversary_from_spec
from repro.sim.congestion import congestion_from_spec
from repro.sim.engine import Engine
from repro.sim.metrics import RunResult
from repro.sim.process import Process
from repro.sim.trace import Trace
from repro.work.tracker import WorkTracker

Builder = Callable[..., Sequence[object]]

ENGINE_KINDS = ("sync", "async")

#: Protocols for which the engine asserts the paper's at-most-one-active
#: invariant on every round (default capability for re-registrations of
#: these names; ``register`` takes an explicit flag for new ones).
_SINGLE_ACTIVE = {"a", "b", "c", "c-batched", "c-naive", "naive"}


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered protocol: its builder plus engine capabilities.

    Attributes:
        name: canonical (as-registered) protocol name.
        builder: ``builder(n, t, **options)`` returning the process list.
        engine: ``"sync"`` (round-driven :class:`~repro.sim.engine.Engine`)
            or ``"async"`` (:class:`~repro.sim.async_engine.AsyncEngine`).
        single_active: the paper proves at most one process is active at
            a time; the sync engine asserts it on every round.
        description: one-line summary for listings.
    """

    name: str
    builder: Builder
    engine: str = "sync"
    single_active: bool = False
    description: str = ""


_ENTRIES: Dict[str, ProtocolEntry] = {}


def register(
    name: str,
    builder: Builder,
    *,
    engine: str = "sync",
    single_active: Optional[bool] = None,
    description: str = "",
) -> None:
    """Register a protocol builder under ``name`` (case-insensitive).

    ``engine`` declares which simulator the builder's processes run on;
    ``single_active=None`` defaults from the paper's known single-active
    protocol names.
    """
    if engine not in ENGINE_KINDS:
        raise ConfigurationError(
            f"unknown engine kind {engine!r}; known kinds: {', '.join(ENGINE_KINDS)}"
        )
    key = name.lower()
    if single_active is None:
        single_active = key in _SINGLE_ACTIVE
    _ENTRIES[key] = ProtocolEntry(
        name=name,
        builder=builder,
        engine=engine,
        single_active=single_active,
        description=description,
    )


def get_entry(name: str) -> ProtocolEntry:
    """Look up a protocol's registry entry, raising a listing on miss."""
    key = name.lower()
    if key not in _ENTRIES:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {', '.join(available_protocols())}"
        )
    return _ENTRIES[key]


def available_protocols(engine: Optional[str] = None) -> List[str]:
    """Registered protocol names (lower-case), optionally filtered to one
    engine kind (``"sync"`` / ``"async"``)."""
    if engine is None:
        return sorted(_ENTRIES)
    if engine not in ENGINE_KINDS:
        raise ConfigurationError(
            f"unknown engine kind {engine!r}; known kinds: {', '.join(ENGINE_KINDS)}"
        )
    return sorted(key for key, entry in _ENTRIES.items() if entry.engine == engine)


def check_options(name: str, options: Dict[str, object]) -> None:
    """Raise a :class:`ConfigurationError` naming the option(s) that
    ``name``'s builder does not take (e.g. a ``schedule`` option passed
    to a static protocol).  The protocol name selects the run; the only
    options are the builder's own keyword parameters."""
    entry = get_entry(name)
    try:
        inspect.signature(entry.builder).bind(0, 0, **options)
    except TypeError as exc:
        raise ConfigurationError(
            f"protocol {entry.name!r} rejected builder option(s) "
            f"{sorted(options)}: {exc}"
        ) from None


def build_processes(name: str, n: int, t: int, **options) -> List[Process]:
    """Invoke ``name``'s builder.  A builder-*signature* mismatch is the
    named :class:`ConfigurationError` of :func:`check_options`; a
    ``TypeError`` raised by a bug *inside* a builder (its signature
    binds fine) propagates untouched."""
    entry = get_entry(name)
    try:
        return list(entry.builder(n, t, **options))
    except TypeError:
        check_options(name, options)
        raise


def run_protocol(
    name: str,
    n: int,
    t: int,
    *,
    adversary: AdversarySpec = None,
    seed: int = 0,
    allow_total_failure: bool = False,
    max_steps: int = 5_000_000,
    max_rounds: Optional[int] = None,
    trace: Optional[Trace] = None,
    unit_effect=None,
    congestion=None,
    **options,
) -> RunResult:
    """Build, run and account one *synchronous* execution of ``name`` on
    ``n`` units and ``t`` processes.  Returns a
    :class:`~repro.sim.metrics.RunResult`.

    ``adversary`` is a live adversary or a spec (``"random:4"``, a spec
    dict), and ``congestion`` a budget or a spec.  The engine asserts
    the paper's at-most-one-active invariant exactly when the entry is
    ``single_active``.  For asynchronous
    protocols, sweeps and JSON round-trips, use
    :class:`repro.api.Scenario` - this function is the stable
    synchronous shorthand it delegates to.
    """
    entry = get_entry(name)
    if entry.engine != "sync":
        raise ConfigurationError(
            f"protocol {name!r} runs on the async engine; use "
            "repro.api.Scenario (or `python -m repro run` with an async "
            "protocol) instead of run_protocol"
        )
    processes = build_processes(name, n, t, **options)
    engine = Engine(
        processes,
        tracker=WorkTracker(n),
        adversary=adversary_from_spec(adversary),
        seed=seed,
        strict_invariants=entry.single_active,
        allow_total_failure=allow_total_failure,
        max_steps=max_steps,
        max_rounds=max_rounds,
        trace=trace,
        unit_effect=unit_effect,
        congestion=congestion_from_spec(congestion),
    )
    return engine.run()


def _register_builtins() -> None:
    from repro.core.baselines import build_naive_checkpoint, build_replicate
    from repro.core.protocol_a import build_protocol_a
    from repro.core.protocol_a_async import build_async_protocol_a
    from repro.core.protocol_b import build_protocol_b
    from repro.core.protocol_c import build_protocol_c, build_protocol_c_batched
    from repro.core.protocol_c_naive import build_naive_spreading
    from repro.core.protocol_d import build_protocol_d
    from repro.core.protocol_d_dynamic import build_dynamic_protocol_d_from_spec
    from repro.core.protocol_d_recovery import build_protocol_d_recovery

    register("A", build_protocol_a, description="checkpointing, effort O(n + t^1.5)")
    register("replicate", build_replicate, description="every process does everything")
    register(
        "naive",
        build_naive_checkpoint,
        description="single worker, checkpoint-all every k units",
    )
    register(
        "C-naive",
        build_naive_spreading,
        description="knowledge spreading without fault detection",
    )
    register("B", build_protocol_b, description="A + go-ahead polling, time O(n + t)")
    register(
        "C",
        build_protocol_c,
        description="recursive fault detection, O(n + t log t) msgs",
    )
    register(
        "C-batched",
        build_protocol_c_batched,
        description="C reporting every n/t units, O(t log t) msgs",
    )
    register(
        "D",
        build_protocol_d,
        description="parallel work + agreement phases, time-optimal",
    )
    register(
        "D-recovery",
        build_protocol_d_recovery,
        description="D with per-phase checkpoints + crash-recover faults",
    )
    register(
        "D-dynamic",
        build_dynamic_protocol_d_from_spec,
        description="D with dynamic work arrivals (schedule spec)",
    )
    register(
        "A-async",
        build_async_protocol_a,
        engine="async",
        description="Protocol A under a failure detector, no rounds",
    )


_register_builtins()
