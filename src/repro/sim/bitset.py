"""Packed-integer bitsets for the simulator's hot set algebra.

Protocol D's agreement fold, the dynamic-workload variant's
known/done/live merges, and Protocol C's faulty-set bookkeeping all
manipulate dense sets of small non-negative integers (work units
``1..n``, pids ``0..t-1``).  With Python ``set`` objects the per-round
fold is Theta(t^2 * n) element-wise hashing; packing each set into one
arbitrary-precision integer turns every union/intersection/difference
into a handful of word-parallel bitwise operations (cf. the Do-All
line of work, where p processors tracking t task completions is exactly
this shape).

Two classes:

* :class:`IntBitset` - the mutable working set.  It interoperates with
  the built-in set API where the protocols and tests need it: ``in``,
  ``len``, ascending iteration, ``|  &  -  ^`` (also against ``set`` /
  ``frozenset`` / any iterable of ints), equality against sets, and the
  usual ``add/discard/update`` mutators.
* :class:`FrozenIntBitset` - an immutable, hashable snapshot used as
  message payload.  Freezing is O(1) (the backing int is shared) and a
  frozen snapshot compares equal to the ``frozenset`` with the same
  members, so traces of a bitset run diff cleanly against a set-based
  oracle run.

Serialization round-trips through :meth:`to_int` / :meth:`from_int`
(the canonical wire form: members are exactly the set bit positions)
or :meth:`to_bytes` / :meth:`from_bytes` (little-endian, minimal
length).

Equality against ``frozenset`` is intentionally *not* matched by hash
(a ``FrozenIntBitset`` hashes like its backing int, not like the
frozenset); do not mix the two as keys of one dict.
"""

from __future__ import annotations

from itertools import compress
from typing import AbstractSet, Iterable, Iterator, List, Union

BitsetLike = Union["_BitsetBase", AbstractSet[int], Iterable[int]]

#: Maps the binary digits ``0``/``1`` to the bytes 0/1.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def positions(mask: int) -> List[int]:
    """The set bit positions of the non-negative ``mask``, ascending.

    A dense mask is read off its binary digits at C speed per digit; a
    sparse one bit by bit, which costs a few big-int operations per set
    bit instead of a pass over every digit.
    """
    if mask.bit_count() * 8 >= mask.bit_length():
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)
        return list(compress(range(len(digits)), digits))
    members = []
    while mask:
        low = mask & -mask
        mask ^= low
        members.append(low.bit_length() - 1)
    return members


def _mask_of(other: BitsetLike) -> int:
    """The packed-int form of any accepted set operand."""
    if isinstance(other, _BitsetBase):
        return other._bits
    mask = 0
    for member in other:
        mask |= 1 << member
    return mask


class _BitsetBase:
    """Read-only bitset behaviour shared by the mutable and frozen forms."""

    __slots__ = ("_bits",)

    _bits: int

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError(f"bitset mask must be non-negative, got {bits}")
        self._bits = bits

    # ---- constructors ----------------------------------------------------

    @classmethod
    def from_iterable(cls, members: Iterable[int]):
        mask = 0
        for member in members:
            if member < 0:
                raise ValueError(f"bitset members must be non-negative, got {member}")
            mask |= 1 << member
        return cls(mask)

    @classmethod
    def from_range(cls, start: int, stop: int):
        """The set ``{start, ..., stop - 1}`` in O(1) big-int operations."""
        if start < 0:
            raise ValueError(f"bitset members must be non-negative, got {start}")
        if stop <= start:
            return cls(0)
        return cls(((1 << (stop - start)) - 1) << start)

    @classmethod
    def singleton(cls, member: int):
        if member < 0:
            raise ValueError(f"bitset members must be non-negative, got {member}")
        return cls(1 << member)

    # ---- serialization ---------------------------------------------------

    @classmethod
    def from_int(cls, mask: int):
        return cls(mask)

    def to_int(self) -> int:
        """Canonical wire form: bit ``i`` set iff ``i`` is a member."""
        return self._bits

    @classmethod
    def from_bytes(cls, data: bytes):
        return cls(int.from_bytes(data, "little"))

    def to_bytes(self) -> bytes:
        bits = self._bits
        return bits.to_bytes((bits.bit_length() + 7) // 8, "little")

    # ---- queries ---------------------------------------------------------

    def __contains__(self, member: int) -> bool:
        return member >= 0 and (self._bits >> member) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        """Members in ascending order (matches ``sorted(set)``)."""
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def count_below(self, bound: int) -> int:
        """Number of members strictly less than ``bound``."""
        if bound <= 0:
            return 0
        return (self._bits & ((1 << bound) - 1)).bit_count()

    def select(self, start: int, count: int) -> list:
        """The members ranked ``start .. start + count - 1`` (0-based,
        ascending), i.e. ``sorted(self)[start:start + count]`` without
        materialising the full member list.

        The rank offset is located with a binary search over
        ``count_below`` (O(log u) word-parallel popcounts for universe
        size u), then ``count`` members are popped off the low end -
        O(log u + count) instead of O(len(self)).  This is the
        work-share slicer of Protocol D's ``Theta(t)`` processes, each
        of which needs only its own ``n/t``-unit slice of the
        outstanding set.
        """
        bits = self._bits
        if count <= 0 or start >= bits.bit_count():
            return []
        low = bits & -bits
        if not bits & (bits + low):
            # One run of consecutive members (D's first work phase, when
            # nothing is done yet): the slice is a range.
            first = low.bit_length() - 1 + start
            return list(range(first, min(first + count, bits.bit_length())))
        if start > 0:
            # Smallest prefix width holding >= start members; at that
            # width it holds exactly start (counts grow one bit at a
            # time), so shifting it away skips exactly start members.
            lo, hi = 0, bits.bit_length()
            while lo < hi:
                mid = (lo + hi) // 2
                if (bits & ((1 << mid) - 1)).bit_count() >= start:
                    hi = mid
                else:
                    lo = mid + 1
            bits >>= lo
            base = lo
        else:
            base = 0
        members = []
        while bits and count > 0:
            low = bits & -bits
            members.append(base + low.bit_length() - 1)
            bits ^= low
            count -= 1
        return members

    def isdisjoint(self, other: BitsetLike) -> bool:
        return self._bits & _mask_of(other) == 0

    def issubset(self, other: BitsetLike) -> bool:
        return self._bits & ~_mask_of(other) == 0

    def issuperset(self, other: BitsetLike) -> bool:
        return _mask_of(other) & ~self._bits == 0

    __le__ = issubset
    __ge__ = issuperset

    def __lt__(self, other: BitsetLike) -> bool:
        mask = _mask_of(other)
        return self._bits != mask and self._bits & ~mask == 0

    def __gt__(self, other: BitsetLike) -> bool:
        mask = _mask_of(other)
        return self._bits != mask and mask & ~self._bits == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _BitsetBase):
            return self._bits == other._bits
        if isinstance(other, (set, frozenset)):
            return self._bits == _mask_of(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    # ---- set algebra (never mutates; returns the operand class of self) --

    def __or__(self, other: BitsetLike):
        return type(self)(self._bits | _mask_of(other))

    __ror__ = __or__

    def union(self, other: BitsetLike):
        return self | other

    def __and__(self, other: BitsetLike):
        return type(self)(self._bits & _mask_of(other))

    __rand__ = __and__

    def intersection(self, other: BitsetLike):
        return self & other

    def __sub__(self, other: BitsetLike):
        return type(self)(self._bits & ~_mask_of(other))

    def difference(self, other: BitsetLike):
        return self - other

    def __rsub__(self, other: BitsetLike):
        return type(self)(_mask_of(other) & ~self._bits)

    def __xor__(self, other: BitsetLike):
        return type(self)(self._bits ^ _mask_of(other))

    __rxor__ = __xor__

    def symmetric_difference(self, other: BitsetLike):
        return self ^ other

    def __repr__(self) -> str:
        return f"{type(self).__name__}({{{', '.join(map(str, self))}}})"


class IntBitset(_BitsetBase):
    """Mutable packed-integer set of non-negative ints (unhashable)."""

    __slots__ = ()
    __hash__ = None  # mutable: keep it out of dicts, like ``set``

    # ---- mutators --------------------------------------------------------

    def add(self, member: int) -> None:
        if member < 0:
            raise ValueError(f"bitset members must be non-negative, got {member}")
        self._bits |= 1 << member

    def discard(self, member: int) -> None:
        if member >= 0:
            self._bits &= ~(1 << member)

    def remove(self, member: int) -> None:
        if member not in self:
            raise KeyError(member)
        self._bits &= ~(1 << member)

    def clear(self) -> None:
        self._bits = 0

    def update(self, other: BitsetLike) -> None:
        self._bits |= _mask_of(other)

    def intersection_update(self, other: BitsetLike) -> None:
        self._bits &= _mask_of(other)

    def difference_update(self, other: BitsetLike) -> None:
        self._bits &= ~_mask_of(other)

    def __ior__(self, other: BitsetLike) -> "IntBitset":
        self._bits |= _mask_of(other)
        return self

    def __iand__(self, other: BitsetLike) -> "IntBitset":
        self._bits &= _mask_of(other)
        return self

    def __isub__(self, other: BitsetLike) -> "IntBitset":
        self._bits &= ~_mask_of(other)
        return self

    def __ixor__(self, other: BitsetLike) -> "IntBitset":
        self._bits ^= _mask_of(other)
        return self

    # ---- snapshots -------------------------------------------------------

    def copy(self) -> "IntBitset":
        return IntBitset(self._bits)

    def freeze(self) -> "FrozenIntBitset":
        """An immutable snapshot sharing the backing int (O(1))."""
        # The bits are known valid, so the snapshot skips ``__init__``:
        # agreement rounds freeze two views per process per round.
        frozen = object.__new__(FrozenIntBitset)
        frozen._bits = self._bits
        return frozen


class FrozenIntBitset(_BitsetBase):
    """Immutable, hashable bitset snapshot (the payload form)."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash((FrozenIntBitset, self._bits))

    def copy(self) -> "FrozenIntBitset":
        return self

    def freeze(self) -> "FrozenIntBitset":
        return self

    def thaw(self) -> IntBitset:
        """A mutable working copy."""
        return IntBitset(self._bits)
