"""Unit and property tests for :class:`repro.sets.BitSet`."""

import pytest
from hypothesis import given, strategies as st

from tests.support.bitset import BitSet


class TestBasics:
    def test_empty_set_has_no_members(self):
        bits = BitSet(16)
        assert len(bits) == 0
        assert not bits
        assert list(bits) == []
        assert 3 not in bits

    def test_add_and_contains(self):
        bits = BitSet(8, [1, 3, 5])
        assert 1 in bits and 3 in bits and 5 in bits
        assert 0 not in bits and 7 not in bits
        assert len(bits) == 3

    def test_add_is_idempotent(self):
        bits = BitSet(8)
        bits.add(4)
        bits.add(4)
        assert len(bits) == 1

    def test_out_of_universe_add_raises(self):
        bits = BitSet(4)
        with pytest.raises(ValueError):
            bits.add(4)
        with pytest.raises(ValueError):
            bits.add(-1)

    def test_negative_universe_rejected(self):
        with pytest.raises(ValueError):
            BitSet(-1)

    def test_contains_outside_universe_is_false(self):
        bits = BitSet(4, [0, 1, 2, 3])
        assert 4 not in bits
        assert -1 not in bits

    def test_discard_and_remove(self):
        bits = BitSet(8, [2, 6])
        bits.discard(2)
        assert 2 not in bits
        bits.discard(2)  # no error
        with pytest.raises(KeyError):
            bits.remove(2)
        bits.remove(6)
        assert not bits

    def test_clear(self):
        bits = BitSet(8, range(8))
        bits.clear()
        assert len(bits) == 0

    def test_iteration_is_sorted(self):
        bits = BitSet(64, [5, 1, 40, 63, 0])
        assert list(bits) == [0, 1, 5, 40, 63]

    def test_full(self):
        bits = BitSet.full(5)
        assert list(bits) == [0, 1, 2, 3, 4]
        assert BitSet.full(0) == BitSet(0)

    def test_from_mask_roundtrip(self):
        bits = BitSet.from_mask(8, 0b10110)
        assert list(bits) == [1, 2, 4]
        assert bits.mask == 0b10110

    def test_from_mask_rejects_out_of_universe_bits(self):
        with pytest.raises(ValueError):
            BitSet.from_mask(3, 0b1000)

    def test_copy_is_independent(self):
        bits = BitSet(8, [1])
        clone = bits.copy()
        clone.add(2)
        assert 2 not in bits

    def test_equality_and_hash(self):
        assert BitSet(8, [1, 2]) == BitSet(8, [2, 1])
        assert BitSet(8, [1]) != BitSet(8, [2])
        assert BitSet(8, [1]) != BitSet(9, [1])
        assert hash(BitSet(8, [1, 2])) == hash(BitSet(8, [1, 2]))

    def test_repr_mentions_members(self):
        assert "1" in repr(BitSet(4, [1]))


class TestAlgebra:
    def test_union_intersection_difference(self):
        a = BitSet(10, [1, 2, 3])
        b = BitSet(10, [3, 4])
        assert list(a | b) == [1, 2, 3, 4]
        assert list(a & b) == [3]
        assert list(a - b) == [1, 2]

    def test_mismatched_universe_raises(self):
        with pytest.raises(ValueError):
            BitSet(4).union(BitSet(5))

    def test_update_with_bitset_and_iterable(self):
        a = BitSet(10, [1])
        a.update(BitSet(10, [2]))
        a.update([3, 4])
        assert list(a) == [1, 2, 3, 4]

    def test_intersection_and_difference_update(self):
        a = BitSet(10, [1, 2, 3, 4])
        a.intersection_update(BitSet(10, [2, 3, 9]))
        assert list(a) == [2, 3]
        a.difference_update(BitSet(10, [3]))
        assert list(a) == [2]

    def test_subset_and_disjoint(self):
        small = BitSet(10, [1, 2])
        big = BitSet(10, [1, 2, 3])
        assert small.issubset(big)
        assert big.issuperset(small)
        assert not big.issubset(small)
        assert small.isdisjoint(BitSet(10, [5]))
        assert small.intersects(BitSet(10, [2, 9]))


class TestNextSetBit:
    def test_next_set_bit_basic(self):
        bits = BitSet(32, [3, 10, 31])
        assert bits.next_set_bit(0) == 3
        assert bits.next_set_bit(3) == 3
        assert bits.next_set_bit(4) == 10
        assert bits.next_set_bit(11) == 31
        assert bits.next_set_bit(32) is None

    def test_next_set_bit_empty(self):
        assert BitSet(8).next_set_bit(0) is None

    def test_next_set_bit_negative_start(self):
        assert BitSet(8, [2]).next_set_bit(-5) == 2

    def test_iter_range(self):
        bits = BitSet(32, [1, 4, 9, 20])
        assert list(bits.iter_range(2, 10)) == [4, 9]
        assert list(bits.iter_range(0, 31)) == [1, 4, 9, 20]
        assert list(bits.iter_range(10, 5)) == []

    def test_storage_bits_rounds_to_words(self):
        assert BitSet(1).storage_bits() == 64
        assert BitSet(64).storage_bits() == 64
        assert BitSet(65).storage_bits() == 128
        assert BitSet(0).storage_bits() == 0


# ----------------------------------------------------------------------
# Property-based tests against Python's built-in set
# ----------------------------------------------------------------------
members = st.lists(st.integers(min_value=0, max_value=127), max_size=40)


@given(members, members)
def test_bitset_matches_builtin_set_algebra(a_items, b_items):
    a_bits, b_bits = BitSet(128, a_items), BitSet(128, b_items)
    a_set, b_set = set(a_items), set(b_items)
    assert set(a_bits | b_bits) == a_set | b_set
    assert set(a_bits & b_bits) == a_set & b_set
    assert set(a_bits - b_bits) == a_set - b_set
    assert a_bits.issubset(b_bits) == (a_set <= b_set)
    assert a_bits.isdisjoint(b_bits) == a_set.isdisjoint(b_set)
    assert len(a_bits) == len(a_set)


@given(members, st.integers(min_value=0, max_value=130))
def test_next_set_bit_matches_min_of_filtered_set(items, start):
    bits = BitSet(128, items)
    expected = min((i for i in set(items) if i >= start), default=None)
    assert bits.next_set_bit(start) == expected


@given(members)
def test_iteration_matches_sorted_set(items):
    assert list(BitSet(128, items)) == sorted(set(items))
