"""Seeded randomness helpers.

All stochastic behaviour in the package flows through an explicit
:class:`random.Random` instance that is derived deterministically from a
user-supplied seed.  There is no module-level RNG state: two simulations
built from the same seed produce byte-identical traces, which the test
suite and the benchmark harness both rely on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Optional, Sequence, TypeVar

T = TypeVar("T")


def make_rng(seed: Optional[int]) -> random.Random:
    """Return a fresh ``random.Random`` for ``seed`` (``None`` = seed 0).

    ``None`` maps to a fixed seed rather than to OS entropy so that
    "I did not pass a seed" still yields reproducible runs.
    """
    return random.Random(0 if seed is None else seed)


def derive_rng(rng: random.Random, *labels: object) -> random.Random:
    """Derive an independent child RNG from ``rng`` and a label tuple.

    Used to give each subsystem (adversary, network delays, failure
    detector) its own stream so that adding a draw in one subsystem does
    not perturb another.
    """
    return child_rng(rng.getrandbits(64), *labels)


def child_rng(bits: int, *labels: object) -> random.Random:
    """The child RNG :func:`derive_rng` builds from 64 ``bits`` already
    drawn from the parent, so the draw and the build can happen apart."""
    material = "|".join([str(bits)] + [str(label) for label in labels])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def choose_subset(rng: random.Random, items: Sequence[T], size: int) -> list[T]:
    """Return a uniformly random subset of ``items`` with exactly ``size``
    elements (clamped to ``len(items)``), in stable order of ``items``."""
    size = max(0, min(size, len(items)))
    chosen = set(rng.sample(range(len(items)), size))
    return [item for index, item in enumerate(items) if index in chosen]


def shuffled(rng: random.Random, items: Iterable[T]) -> list[T]:
    """Return a new list with the elements of ``items`` in random order."""
    result = list(items)
    rng.shuffle(result)
    return result
