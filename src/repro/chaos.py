"""Deterministic, seeded fault injection for the execution plane.

DHW-92 is a paper about finishing work despite fail-stop faults; this
module points the same adversarial mindset at our own infrastructure.
A :class:`ChaosInjector` is threaded through the service stack -- the
:class:`~repro.cache.ResultCache` journal, the
:class:`~repro.server.jobs.JobStore` workers, the HTTP handler, the
:class:`~repro.client.Client` transport and the
:class:`~repro.campaign.ledger.CampaignLedger` -- and decides, at named
*injection points*, whether the next operation fails and how.  Every
decision comes from a per-point seeded RNG stream, so a chaos run is a
deterministic function of ``(seed, per-point call sequence)`` and a
failure found once reproduces forever (the same property the simulation
adversaries have).

Injection points and their fault modes:

=================  ====================================================
``journal_write``  cache journal append: ``torn`` (half a line, no
                   newline), ``partial`` (a truncated-but-newline-
                   terminated line), ``fail`` (the write raises
                   ``OSError``)
``worker``         job-store execution: ``crash`` (raises mid-run),
                   ``delay`` (completes late)
``transport``      client HTTP request: ``refused`` (connection
                   refused), ``error_5xx`` (a retryable 5xx),
                   ``slow`` (response delayed)
``handler``        server request handling: ``exception`` (the handler
                   raises; the client sees HTTP 500)
``ledger_append``  campaign chunk checkpoint: ``torn`` (half a line,
                   then a simulated kill), ``fsync_fail`` (the flush
                   "fails"; the append rewinds and retries)
=================  ====================================================

The spec grammar mirrors the adversary grammar: a comma-separated
string of ``point=rate`` pairs plus an optional ``seed``::

    chaos="journal_write=0.02,transport=0.05,worker=0.01,seed=7"

or the equivalent dict.  :func:`normalize_chaos_spec` canonicalises and
validates (rates must be numbers in ``[0, 1]``; unknown points are
:class:`~repro.errors.ConfigurationError`\\ s naming the offending value),
:func:`chaos_from_spec` builds a live injector.  Every injected fault is
recorded in the injector's :class:`ChaosLog`, which is what the chaos
harness (``tests/test_chaos.py``, CI ``chaos-smoke``) asserts against:
faults *were* injected, and nothing was lost anyway.  See
``docs/chaos.md``.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.specs import integer, number

#: The named places the service stack consults the injector.
INJECTION_POINTS = (
    "journal_write",
    "worker",
    "transport",
    "handler",
    "ledger_append",
)

#: Fault modes per injection point; a firing point picks one uniformly
#: from its own RNG stream.
POINT_MODES: Dict[str, Tuple[str, ...]] = {
    "journal_write": ("torn", "partial", "fail"),
    "worker": ("crash", "delay"),
    "transport": ("refused", "error_5xx", "slow"),
    "handler": ("exception",),
    "ledger_append": ("torn", "fsync_fail"),
}

#: ChaosLog keeps at most this many per-event records (counters are
#: never truncated).
MAX_LOGGED_EVENTS = 10_000


class InjectedFault(Exception):
    """An injected failure (not a :class:`~repro.errors.ReproError`:
    the hardened layers must treat it like any *unexpected* crash)."""


class ChaosInterrupt(InjectedFault):
    """An injected mid-write kill (torn ledger append).  Propagates out
    of the campaign runner exactly like a real ``kill -9`` would stop
    the process; the harness catches it and resumes."""


class ChaosLog:
    """Thread-safe record of every injected fault.

    ``events`` holds ``{"point", "mode", "detail"}`` dicts in injection
    order (capped at :data:`MAX_LOGGED_EVENTS`); ``counts`` never caps.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.events: List[Dict[str, str]] = []
        self.counts: Counter = Counter()  # (point, mode) -> n

    def record(self, point: str, mode: str, detail: str = "") -> None:
        with self._lock:
            self.counts[(point, mode)] += 1
            if len(self.events) < MAX_LOGGED_EVENTS:
                self.events.append(
                    {"point": point, "mode": mode, "detail": detail}
                )

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def count(self, point: Optional[str] = None, mode: Optional[str] = None) -> int:
        """Injected-fault count, optionally filtered by point and mode."""
        with self._lock:
            return sum(
                n
                for (p, m), n in self.counts.items()
                if (point is None or p == point) and (mode is None or m == mode)
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot (the chaos-report artifact)."""
        with self._lock:
            by_point: Counter = Counter()
            for (point, _), n in self.counts.items():
                by_point[point] += n
            return {
                "total": sum(self.counts.values()),
                "by_point": dict(sorted(by_point.items())),
                "by_mode": {
                    f"{point}:{mode}": n
                    for (point, mode), n in sorted(self.counts.items())
                },
                "events": [dict(event) for event in self.events],
            }


class ChaosInjector:
    """Seeded fault source shared across the stack's injection points.

    Each point draws from its **own** ``random.Random`` stream (seeded
    ``(seed, point)``), so whether the 7th journal write tears does not
    depend on how many transport calls happened first -- determinism
    survives thread interleaving as long as each point's own call
    sequence is deterministic.  ``fire`` is the single entry: it returns
    ``None`` (proceed normally) or a mode string from
    :data:`POINT_MODES`, recording the fault in :attr:`log`.
    """

    def __init__(self, rates: Dict[str, float], seed: int = 0):
        normalized = normalize_chaos_spec({"seed": seed, **rates})
        self.rates: Dict[str, float] = dict(normalized["rates"]) if normalized else {}
        self.seed = int(seed)
        self.log = ChaosLog()
        self._lock = threading.Lock()
        self._rngs = {
            point: random.Random(f"{self.seed}:{point}")
            for point in INJECTION_POINTS
        }

    def fire(self, point: str, detail: str = "") -> Optional[str]:
        """``None`` or the fault mode to inject at ``point`` now."""
        if point not in POINT_MODES:
            raise ConfigurationError(
                f"unknown chaos injection point {point!r}; known points: "
                + ", ".join(INJECTION_POINTS)
            )
        rate = self.rates.get(point, 0.0)
        if rate <= 0.0:
            return None
        with self._lock:
            rng = self._rngs[point]
            if rng.random() >= rate:
                return None
            modes = POINT_MODES[point]
            mode = modes[rng.randrange(len(modes))] if len(modes) > 1 else modes[0]
        self.log.record(point, mode, detail)
        return mode

    def spec_dict(self) -> Dict[str, Any]:
        """The canonical spec this injector was built from."""
        return {"seed": self.seed, "rates": dict(sorted(self.rates.items()))}


# =====================================================================
# The chaos spec grammar
# =====================================================================

#: What chaos-accepting entry points take: ``None`` (no injection), a
#: grammar string, a dict, or an already-built injector.
ChaosSpec = Union[None, str, Dict[str, Any], ChaosInjector]


_RATE = number(0, 1)
_SEED = integer()


def _parse_chaos_string(text: str) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise ConfigurationError(
                f"chaos spec entries are spelled POINT=RATE (or seed=N), "
                f"got {part!r}"
            )
        params[name.strip().replace("-", "_")] = value.strip()
    return params


def normalize_chaos_spec(spec: ChaosSpec) -> Optional[Dict[str, Any]]:
    """Canonicalise ``spec`` to ``None`` or a validated
    ``{"seed": int, "rates": {point: rate}}`` dict.

    Accepts the string grammar
    (``"journal_write=0.02,transport=0.05,seed=7"``), a flat dict of the
    same shape, or an already-canonical ``{"seed", "rates"}`` dict.
    Raises :class:`ConfigurationError` naming any unknown point or
    out-of-range rate.  A spec with no positive rate normalizes to
    ``None`` (no injection).
    """
    if spec is None:
        return None
    if isinstance(spec, ChaosInjector):
        return spec.spec_dict()
    if isinstance(spec, str):
        params = _parse_chaos_string(spec)
    elif isinstance(spec, dict):
        params = {str(k).replace("-", "_"): v for k, v in spec.items()}
    else:
        raise ConfigurationError(
            f"chaos spec must be None, a string, or a dict, got "
            f"{type(spec).__name__}"
        )
    if "rates" in params:
        raw_rates = params.pop("rates")
        if not isinstance(raw_rates, dict):
            raise ConfigurationError(
                f"'rates' in a chaos spec must be a dict of point=rate, "
                f"got {raw_rates!r}"
            )
        overlap = set(params) & set(INJECTION_POINTS)
        if overlap:
            raise ConfigurationError(
                f"chaos spec mixes a 'rates' dict with top-level point(s) "
                f"{sorted(overlap)}; use one form"
            )
        params.update(raw_rates)
    seed = _SEED(params.pop("seed", 0), what="chaos 'seed'")
    unknown = set(params) - set(INJECTION_POINTS)
    if unknown:
        raise ConfigurationError(
            f"unknown chaos injection point(s) {sorted(unknown)}; known "
            "points: " + ", ".join(INJECTION_POINTS)
        )
    rates = {
        point: _RATE(value, what=f"chaos rate for {point!r}")
        for point, value in params.items()
    }
    rates = {point: rate for point, rate in sorted(rates.items()) if rate > 0.0}
    if not rates:
        return None
    return {"seed": seed, "rates": rates}


def chaos_from_spec(spec: ChaosSpec) -> Optional[ChaosInjector]:
    """Build a fresh :class:`ChaosInjector` from a spec (``None`` when
    the spec injects nothing).  A live injector passes through."""
    if isinstance(spec, ChaosInjector):
        return spec
    params = normalize_chaos_spec(spec)
    if params is None:
        return None
    return ChaosInjector(params["rates"], seed=params["seed"])


__all__ = [
    "INJECTION_POINTS",
    "POINT_MODES",
    "ChaosInjector",
    "ChaosInterrupt",
    "ChaosLog",
    "ChaosSpec",
    "InjectedFault",
    "chaos_from_spec",
    "normalize_chaos_spec",
]
