"""The sqrt(t) group structure of Protocols A and B.

The paper divides the ``t`` processes into ``sqrt(t)`` groups of size
``sqrt(t)``, assuming ``t`` is a perfect square "for ease of exposition".
We implement the general case: group size ``gs = ceil(sqrt(t))`` and
``ng = ceil(t / gs)`` consecutive groups, the last possibly smaller.
Groups are 1-indexed to match the paper's ``g_i = ceil((i+1)/sqrt(t))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SqrtGroups:
    """Partition of processes ``0..t-1`` into consecutive sqrt-size groups.

    Frozen, so the processes of one shape can share one instance.
    """

    t: int
    group_size: int = field(init=False)
    num_groups: int = field(init=False)

    def __post_init__(self) -> None:
        t = self.t
        if t < 1:
            raise ConfigurationError(f"need at least one process, got t={t}")
        group_size = math.isqrt(t)
        if group_size * group_size < t:
            group_size += 1
        object.__setattr__(self, "group_size", group_size)
        object.__setattr__(self, "num_groups", -(-t // group_size))  # ceil division

    # ---- membership ----------------------------------------------------

    def group_of(self, pid: int) -> int:
        """1-indexed group of ``pid`` (the paper's ``g_i``)."""
        self._check_pid(pid)
        return pid // self.group_size + 1

    def members(self, group: int) -> List[int]:
        """All pids in 1-indexed ``group``, ascending."""
        self._check_group(group)
        start = (group - 1) * self.group_size
        end = min(start + self.group_size, self.t)
        return list(range(start, end))

    def group_start(self, group: int) -> int:
        self._check_group(group)
        return (group - 1) * self.group_size

    def position_in_group(self, pid: int) -> int:
        """0-based index of ``pid`` within its group (the paper's ``j-bar``)."""
        self._check_pid(pid)
        return pid - self.group_start(self.group_of(pid))

    def higher_members(self, pid: int) -> List[int]:
        """Members of ``pid``'s own group with larger pid.

        This is the recipient set of a partial checkpoint: the paper's
        "broadcast (c) to processes j+1, ..., g_j * sqrt(t) - 1".
        """
        group = self.group_of(pid)
        return [member for member in self.members(group) if member > pid]

    def lower_members(self, pid: int) -> List[int]:
        group = self.group_of(pid)
        return [member for member in self.members(group) if member < pid]

    def groups_after(self, group: int) -> List[int]:
        """Groups strictly after ``group`` in checkpoint order."""
        self._check_group(group)
        return list(range(group + 1, self.num_groups + 1))

    # ---- validation ------------------------------------------------------

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.t:
            raise ConfigurationError(f"pid {pid} outside 0..{self.t - 1}")

    def _check_group(self, group: int) -> None:
        if not 1 <= group <= self.num_groups:
            raise ConfigurationError(
                f"group {group} outside 1..{self.num_groups}"
            )
