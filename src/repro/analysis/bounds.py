"""The paper's closed-form complexity bounds, one function per claim.

Every benchmark compares its measured work / message / round counts
against these.  The bounds are stated under the paper's simplifying
assumptions (``t`` a perfect square with ``t | n`` for Protocols A and B,
``t`` a power of two for Protocol C); the benchmark sweeps choose shapes
that satisfy them so the constants apply verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Bound:
    """A single bound: human-readable formula plus its evaluated value."""

    formula: str
    value: float

    def holds_for(self, measured: float) -> bool:
        return measured <= self.value


def _sqrt(t: int) -> float:
    return math.sqrt(t)


def _log2(t: int) -> float:
    return math.log2(max(2, t))


# ---- Theorem 2.3: Protocol A ------------------------------------------------


def protocol_a_work(n: int, t: int) -> Bound:
    n_prime = max(n, t)
    return Bound("3n'", 3 * n_prime)


def protocol_a_messages(n: int, t: int) -> Bound:
    return Bound("9 t sqrt(t)", 9 * t * _sqrt(t))


def protocol_a_rounds(n: int, t: int) -> Bound:
    return Bound("n t + 3 t^2", n * t + 3 * t * t)


# ---- Theorem 2.8: Protocol B ------------------------------------------------


def protocol_b_work(n: int, t: int) -> Bound:
    n_prime = max(n, t)
    return Bound("3n'", 3 * n_prime)


def protocol_b_messages(n: int, t: int) -> Bound:
    return Bound("10 t sqrt(t)", 10 * t * _sqrt(t))


def protocol_b_rounds(n: int, t: int) -> Bound:
    return Bound("3n + 8t", 3 * n + 8 * t)


# ---- Theorem 3.8 / Corollary 3.9: Protocol C ---------------------------------


def protocol_c_work(n: int, t: int) -> Bound:
    return Bound("n + 2t", n + 2 * t)


def protocol_c_messages(n: int, t: int) -> Bound:
    return Bound("n + 8 t log t", n + 8 * t * _log2(t))


def protocol_c_rounds(n: int, t: int) -> Bound:
    k = 5 * t + 2 * _log2(t)
    return Bound("t K (n+t) 2^(n+t)", t * k * (n + t) * 2.0 ** (n + t))


def protocol_c_batched_work(n: int, t: int) -> Bound:
    # Corollary 3.9: "does not result in a significant increase in total
    # work": each takeover may redo up to one unreported batch of
    # ceil(n/t) units, so work stays within 2n + 2t = O(n + t).
    return Bound("2n + 2t", 2 * n + 2 * t)


def protocol_c_batched_messages(n: int, t: int) -> Bound:
    return Bound("9 t log t", 9 * t * _log2(t))


# ---- Theorem 4.1: Protocol D ---------------------------------------------------


def protocol_d_work(n: int, t: int, f: int) -> Bound:
    return Bound("2n", 2 * n)


def protocol_d_messages(n: int, t: int, f: int) -> Bound:
    return Bound("(4f + 2) t^2", (4 * f + 2) * t * t)


def protocol_d_rounds(n: int, t: int, f: int) -> Bound:
    return Bound("(f+1) n/t + 4f + 2", (f + 1) * n / t + 4 * f + 2)


def protocol_d_reverted_work(n: int, t: int, f: int) -> Bound:
    return Bound("4n", 4 * n)


def protocol_d_reverted_messages(n: int, t: int, f: int) -> Bound:
    extra = 9 * t * _sqrt(t) / (2 * math.sqrt(2))
    return Bound("(4f+2) t^2 + 9 t sqrt(t) / (2 sqrt 2)", (4 * f + 2) * t * t + extra)


# ---- baselines (Section 1) --------------------------------------------------------


def replicate_work(n: int, t: int) -> Bound:
    return Bound("t n", t * n)


def single_checkpointer_work(n: int, t: int) -> Bound:
    return Bound("n + t - 1", n + t - 1)


def single_checkpointer_messages(n: int, t: int) -> Bound:
    return Bound("~ t n", t * n)


# ---- Section 5: Byzantine agreement --------------------------------------------------


def byzantine_messages(n_system: int, t: int, protocol: str) -> Bound:
    s = t + 1  # senders
    if protocol.upper() in ("A", "B"):
        return Bound(
            "n + O(t sqrt(t))", n_system + t + 10 * s * _sqrt(s)
        )
    return Bound("n + O(t log t)", n_system + t + 10 * s * _log2(s) + n_system)
