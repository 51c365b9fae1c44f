"""Chunk / subchunk partition of the work pool (Protocols A and B).

The paper divides the ``n`` units into ``sqrt(t)`` chunks of ``sqrt(t)``
subchunks each, i.e. ``t`` subchunks of ``n/t`` units, assuming ``t | n``.
General case: subchunk ``c`` (1-indexed, ``c in 1..t``) covers units
``floor((c-1) n / t) + 1 .. floor(c n / t)``; subchunk sizes are then
``floor(n/t)`` or ``ceil(n/t)`` and may be zero when ``n < t`` (an empty
subchunk is still checkpointed, mirroring the paper's ``n' = max(n, t)``
effort accounting).

A *chunk boundary* is a subchunk index divisible by the group size, plus
the final subchunk ``t`` (so the terminal full checkpoint always happens
even when ``t`` is not a multiple of the group size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SubchunkPlan:
    """Mapping between subchunk indices and unit ranges.

    Frozen, so the processes of one shape can share one instance.
    """

    n: int
    t: int
    group_size: int
    num_subchunks: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigurationError(f"n must be non-negative, got {self.n}")
        if self.t < 1:
            raise ConfigurationError(f"t must be positive, got {self.t}")
        if self.group_size < 1:
            raise ConfigurationError(
                f"group size must be positive, got {self.group_size}"
            )
        object.__setattr__(self, "num_subchunks", self.t)

    def units_of(self, subchunk: int) -> List[int]:
        """Units covered by 1-indexed ``subchunk`` (ascending, maybe empty)."""
        self._check(subchunk)
        low = ((subchunk - 1) * self.n) // self.t
        high = (subchunk * self.n) // self.t
        return list(range(low + 1, high + 1))

    def last_unit_of(self, subchunk: int) -> int:
        """Last unit covered by subchunks ``1..subchunk`` (0 if none)."""
        self._check_or_zero(subchunk)
        return (subchunk * self.n) // self.t

    def is_chunk_boundary(self, subchunk: int) -> bool:
        """Whether completing ``subchunk`` triggers a full checkpoint."""
        self._check(subchunk)
        return subchunk % self.group_size == 0 or subchunk == self.num_subchunks

    def subchunk_size_bound(self) -> int:
        """Upper bound on units per subchunk (``ceil(n/t)``)."""
        return -(-self.n // self.t)

    def boundaries(self) -> List[int]:
        return [
            c
            for c in range(1, self.num_subchunks + 1)
            if self.is_chunk_boundary(c)
        ]

    # ---- validation -------------------------------------------------------

    def _check(self, subchunk: int) -> None:
        if not 1 <= subchunk <= self.num_subchunks:
            raise ConfigurationError(
                f"subchunk {subchunk} outside 1..{self.num_subchunks}"
            )

    def _check_or_zero(self, subchunk: int) -> None:
        if not 0 <= subchunk <= self.num_subchunks:
            raise ConfigurationError(
                f"subchunk {subchunk} outside 0..{self.num_subchunks}"
            )
