"""IntBitset / FrozenIntBitset: set semantics, algebra, serialization.

The bitset is a drop-in for the protocols' ``set`` state, so these
tests check it against the reference semantics of the built-in ``set``
under randomized operation sequences, plus the identities the agreement
fold relies on (idempotence, absorption, frozen-snapshot isolation).
"""

import random

import pytest

from repro.sim.bitset import FrozenIntBitset, IntBitset, positions

# ---- construction and basic queries ---------------------------------------


def test_empty():
    b = IntBitset()
    assert len(b) == 0
    assert not b
    assert list(b) == []
    assert 0 not in b


def test_from_iterable_and_membership():
    b = IntBitset.from_iterable([5, 1, 9, 1])
    assert sorted(b) == [1, 5, 9]
    assert len(b) == 3
    assert 5 in b and 2 not in b and -1 not in b


def test_from_range_matches_range():
    assert list(IntBitset.from_range(3, 9)) == list(range(3, 9))
    assert list(IntBitset.from_range(7, 7)) == []
    assert list(IntBitset.from_range(9, 3)) == []
    assert list(IntBitset.from_range(0, 1)) == [0]


def test_singleton():
    b = IntBitset.singleton(12)
    assert list(b) == [12]


def test_negative_members_rejected():
    with pytest.raises(ValueError):
        IntBitset.from_iterable([3, -1])
    with pytest.raises(ValueError):
        IntBitset().add(-4)
    with pytest.raises(ValueError):
        IntBitset.singleton(-1)
    with pytest.raises(ValueError):
        IntBitset(-1)


def test_iteration_is_ascending():
    b = IntBitset.from_iterable([907, 0, 64, 63, 65, 128])
    assert list(b) == sorted(b)
    assert list(b) == [0, 63, 64, 65, 128, 907]


def test_popcount_len():
    assert len(IntBitset.from_range(0, 4096)) == 4096
    assert len(IntBitset.from_iterable([1 << 10, 1 << 16])) == 2


def test_count_below():
    b = IntBitset.from_iterable([0, 3, 7, 64, 100])
    assert b.count_below(0) == 0
    assert b.count_below(1) == 1
    assert b.count_below(8) == 3
    assert b.count_below(101) == 5
    assert b.count_below(-5) == 0


# ---- equality with sets ----------------------------------------------------


def test_equality_with_sets_both_directions():
    b = IntBitset.from_iterable([2, 4, 8])
    assert b == {2, 4, 8}
    assert {2, 4, 8} == b
    assert b == frozenset({2, 4, 8})
    assert b != {2, 4}
    assert not (b == {2, 4, 9})
    assert b.freeze() == {2, 4, 8}
    assert b != [2, 4, 8]  # only set-like equality, not iterable equality


def test_equality_between_forms():
    b = IntBitset.from_iterable([1, 2])
    assert b == b.freeze()
    assert b.freeze() == b
    assert b.freeze() == FrozenIntBitset.from_iterable([2, 1])


# ---- merge identities (what the agreement fold relies on) ------------------


def test_union_intersection_difference_identities():
    a = IntBitset.from_iterable([1, 2, 3, 64])
    b = IntBitset.from_iterable([2, 64, 99])
    empty = IntBitset()
    assert a | empty == a
    assert a & a == a                      # idempotence
    assert a | a == a
    assert a & (a | b) == a                # absorption
    assert a | (a & b) == a
    assert (a - b) | (a & b) == a          # partition
    assert (a - b).isdisjoint(b)
    assert a ^ b == (a | b) - (a & b)
    assert a - b == {1, 3}
    assert a & b == {2, 64}
    assert a | b == {1, 2, 3, 64, 99}


def test_algebra_against_plain_sets_and_iterables():
    a = IntBitset.from_iterable([1, 2, 3])
    assert a | {4} == {1, 2, 3, 4}
    assert a & {2, 3, 9} == {2, 3}
    assert a - [1, 9] == {2, 3}
    assert {1, 9} - a == {9}               # reflected difference
    assert isinstance(a | {4}, IntBitset)


def test_subset_superset_disjoint():
    a = IntBitset.from_iterable([1, 2])
    b = IntBitset.from_iterable([1, 2, 3])
    assert a <= b and a < b and b >= a and b > a
    assert a <= {1, 2} and not (a < {1, 2})
    assert a.issubset({1, 2, 5})
    assert b.issuperset(a)
    assert a.isdisjoint({7, 8}) and not a.isdisjoint({2})


def test_mutators_match_set_semantics():
    b = IntBitset.from_iterable([1, 2])
    b.add(5)
    b.discard(2)
    b.discard(99)           # absent: no-op, like set.discard
    b.discard(-3)           # negative: no-op
    assert b == {1, 5}
    b.remove(1)
    assert b == {5}
    with pytest.raises(KeyError):
        b.remove(1)
    b.update({7, 8})
    b.update(IntBitset.singleton(9))
    assert b == {5, 7, 8, 9}
    b.intersection_update({5, 7, 100})
    assert b == {5, 7}
    b.difference_update([7])
    assert b == {5}
    b.clear()
    assert not b


def test_inplace_operators_mutate_in_place():
    b = IntBitset.from_iterable([1, 2])
    alias = b
    b |= {3}
    b &= {2, 3}
    b -= {2}
    b ^= {2, 3}
    assert alias is b
    assert b == {2}


# ---- snapshots and hashing -------------------------------------------------


def test_freeze_is_isolated_from_later_mutation():
    b = IntBitset.from_iterable([1, 2])
    snap = b.freeze()
    b.add(3)
    b.discard(1)
    assert snap == {1, 2}
    assert b == {2, 3}


def test_frozen_is_hashable_mutable_is_not():
    snap = IntBitset.from_iterable([4, 5]).freeze()
    assert {snap: "x"}[FrozenIntBitset.from_iterable([5, 4])] == "x"
    with pytest.raises(TypeError):
        hash(IntBitset())


def test_thaw_round_trip():
    snap = FrozenIntBitset.from_iterable([3, 1])
    thawed = snap.thaw()
    thawed.add(2)
    assert snap == {1, 3}
    assert thawed == {1, 2, 3}
    assert snap.copy() is snap
    assert snap.freeze() is snap


# ---- serialization ---------------------------------------------------------


@pytest.mark.parametrize("members", [[], [0], [1, 5, 63, 64, 200], list(range(100))])
def test_int_round_trip(members):
    for cls in (IntBitset, FrozenIntBitset):
        b = cls.from_iterable(members)
        assert cls.from_int(b.to_int()) == b
        assert b.to_int() == sum(1 << m for m in set(members))


@pytest.mark.parametrize("members", [[], [0], [7, 8, 9], [1, 5, 63, 64, 200]])
def test_bytes_round_trip(members):
    for cls in (IntBitset, FrozenIntBitset):
        b = cls.from_iterable(members)
        data = b.to_bytes()
        assert isinstance(data, bytes)
        assert cls.from_bytes(data) == b
    assert IntBitset().to_bytes() == b""


def test_repr_lists_members():
    assert repr(IntBitset.from_iterable([2, 1])) == "IntBitset({1, 2})"
    assert repr(FrozenIntBitset()) == "FrozenIntBitset({})"


# ---- randomized equivalence with set ---------------------------------------


def test_randomized_operations_match_set_reference():
    rng = random.Random(20260726)
    for trial in range(30):
        bits = IntBitset()
        ref = set()
        for _ in range(120):
            op = rng.randrange(8)
            if op == 0:
                member = rng.randrange(300)
                bits.add(member)
                ref.add(member)
            elif op == 1:
                member = rng.randrange(300)
                bits.discard(member)
                ref.discard(member)
            elif op in (2, 3, 4):
                other = {rng.randrange(300) for _ in range(rng.randrange(12))}
                if op == 2:
                    bits |= other
                    ref |= other
                elif op == 3:
                    keep = other | {m for m in ref if rng.random() < 0.5}
                    bits &= keep
                    ref &= keep
                else:
                    bits -= other
                    ref -= other
            elif op == 5:
                snap = bits.freeze()
                assert snap == ref
                assert IntBitset.from_bytes(bits.to_bytes()) == ref
            elif op == 6:
                assert len(bits) == len(ref)
                assert sorted(bits) == sorted(ref)
                probe = rng.randrange(300)
                assert (probe in bits) == (probe in ref)
            else:
                bound = rng.randrange(301)
                assert bits.count_below(bound) == sum(1 for m in ref if m < bound)
        assert bits == ref


def test_select_matches_a_slice_of_the_sorted_members():
    """``select(start, count)`` is ``sorted(self)[start:start + count]``,
    on scattered sets and on the contiguous runs it answers as a range."""
    rng = random.Random(7)
    cases = [set(), {0}, {5}, set(range(3, 40)), set(range(0, 130)), {1, 2, 4}]
    cases += [set(rng.sample(range(200), rng.randrange(1, 60))) for _ in range(30)]
    cases += [set(range(lo, lo + rng.randrange(1, 80))) for lo in rng.sample(range(100), 10)]
    for members in cases:
        bitset = IntBitset.from_iterable(members)
        ordered = sorted(members)
        for start in range(0, len(ordered) + 3, 3):
            for count in (0, 1, 2, 7, len(ordered) + 1):
                assert bitset.select(start, count) == ordered[start : start + count]


@pytest.mark.parametrize("width,count", [(0, 0), (1, 1), (64, 3), (64, 60), (512, 504), (4096, 1), (4096, 64), (4096, 4096)])
def test_positions_lists_set_bits_ascending_dense_or_sparse(width, count):
    members = random.Random(width * 7 + count).sample(range(width), count)
    mask = sum(1 << member for member in members)
    assert positions(mask) == sorted(members) == list(IntBitset(mask))
