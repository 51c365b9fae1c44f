"""The paper's closed-form complexity bounds, as one table.

:func:`theorem_bounds` is the one place a protocol name is mapped to the
bounds the paper proves for it (Theorems 2.3, 2.8, 3.8 with Corollary
3.9, and 4.1): :func:`repro.analysis.verify.verify_run` and the
experiments both read it.  The bounds are stated under the paper's
simplifying assumptions (``t`` a perfect square with ``t | n`` for
Protocols A and B, ``t`` a power of two for Protocol C); the benchmark
sweeps choose shapes that satisfy them so the constants apply verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Bound:
    """A single bound: human-readable formula plus its evaluated value.

    ``offset`` is added to the run's measure before comparing: Protocol
    D's time bound counts rounds ``0..retire_round``, so it reads
    ``retire_round + 1``."""

    formula: str
    value: float
    offset: int = 0

    def measured(self, measure: float) -> float:
        """The figure this bound is compared with."""
        return measure + self.offset

    def holds_for(self, measure: float) -> bool:
        return self.measured(measure) <= self.value


def _log2(t: int) -> float:
    return math.log2(max(2, t))


#: Registered sync protocols the paper proves nothing for beyond doing
#: all the work: only the completion check applies to them.
_NO_PAPER_BOUND = frozenset({"NAIVE", "C-NAIVE", "D-DYNAMIC", "D-RECOVERY"})


def theorem_bounds(
    protocol: str, n: int, t: int, *, failures: int = 0, reverted: bool = False
) -> Dict[str, Bound]:
    """The paper's bounds on a run of ``protocol`` on an ``(n, t)``
    instance, keyed by the :meth:`~repro.sim.metrics.Metrics.measures`
    name each one bounds (``work``, ``messages``, ``rounds``).

    ``failures`` (the paper's f) enters only Protocol D's bounds, and
    ``reverted`` (the run reverted to Protocol A) picks Theorem 4.1's
    second family for D.  A protocol with no paper bound maps to ``{}``;
    a name the table does not know raises :class:`ConfigurationError`.
    """
    key = protocol.upper()
    f = failures
    if key == "A":  # Theorem 2.3
        return {
            "work": Bound("3n'", 3 * max(n, t)),
            "messages": Bound("9 t sqrt(t)", 9 * t * math.sqrt(t)),
            "rounds": Bound("n t + 3 t^2", n * t + 3 * t * t),
        }
    if key == "B":  # Theorem 2.8
        return {
            "work": Bound("3n'", 3 * max(n, t)),
            "messages": Bound("10 t sqrt(t)", 10 * t * math.sqrt(t)),
            "rounds": Bound("3n + 8t", 3 * n + 8 * t),
        }
    if key == "C":  # Theorem 3.8, with K = 5t + 2 log t
        k = 5 * t + 2 * _log2(t)
        return {
            "work": Bound("n + 2t", n + 2 * t),
            "messages": Bound("n + 8 t log t", n + 8 * t * _log2(t)),
            "rounds": Bound("t K (n+t) 2^(n+t)", t * k * (n + t) * 2.0 ** (n + t)),
        }
    if key == "C-BATCHED":  # Corollary 3.9
        # "does not result in a significant increase in total work": each
        # takeover may redo up to one unreported batch of ceil(n/t) units,
        # so work stays within 2n + 2t = O(n + t).
        return {
            "work": Bound("2n + 2t", 2 * n + 2 * t),
            "messages": Bound("9 t log t", 9 * t * _log2(t)),
        }
    if key == "D" and reverted:  # Theorem 4.1.2: D ran Protocol A
        extra = 9 * t * math.sqrt(t) / (2 * math.sqrt(2))
        return {
            "work": Bound("4n", 4 * n),
            "messages": Bound(
                "(4f+2) t^2 + 9 t sqrt(t) / (2 sqrt 2)", (4 * f + 2) * t * t + extra
            ),
        }
    if key == "D":  # Theorem 4.1.1
        return {
            "work": Bound("2n", 2 * n),
            "messages": Bound("(4f + 2) t^2", (4 * f + 2) * t * t),
            "rounds": Bound("(f+1) n/t + 4f + 2", (f + 1) * n / t + 4 * f + 2, offset=1),
        }
    if key == "REPLICATE":  # the Section 1 baseline
        return {"work": Bound("t n", t * n)}
    if key in _NO_PAPER_BOUND:
        return {}
    raise ConfigurationError(f"no bound table entry for protocol {protocol!r}")


# ---- Section 5: Byzantine agreement --------------------------------------------------


def byzantine_messages(n_system: int, t: int, protocol: str) -> Bound:
    s = t + 1  # senders
    if protocol.upper() in ("A", "B"):
        return Bound(
            "n + O(t sqrt(t))", n_system + t + 10 * s * math.sqrt(s)
        )
    return Bound("n + O(t log t)", n_system + t + 10 * s * _log2(s) + n_system)
