"""Tests for the warp/block/device scan hierarchy."""

import pytest
from hypothesis import given, strategies as st

from repro.reference.scan.hierarchical import (
    block_scan,
    hierarchical_device_scan,
    warp_scan,
)
from repro.reference.scan.operators import SumMonoid, TransitionComposeMonoid
from repro.reference.scan.sequential import exclusive_scan, inclusive_scan

NUM_STATES = 4

ints = st.lists(st.integers(-100, 100), max_size=300)
vectors = st.lists(
    st.lists(st.integers(0, NUM_STATES - 1), min_size=NUM_STATES,
             max_size=NUM_STATES).map(tuple), max_size=130)


class TestWarpScan:
    @given(st.lists(st.integers(-50, 50), max_size=32))
    def test_matches_sequential(self, lanes):
        assert warp_scan(lanes, SumMonoid()) \
            == inclusive_scan(lanes, SumMonoid())

    def test_step_count_is_log(self):
        # Structural: the doubling loop makes exactly log2(32)=5 sweeps
        # for a full warp (witnessed through a counting monoid).
        class CountingSum(SumMonoid):
            combines = 0

            def combine(self, a, b):
                CountingSum.combines += 1
                return super().combine(a, b)

        m = CountingSum()
        CountingSum.combines = 0
        warp_scan(list(range(32)), m)
        # Hillis-Steele work: sum over d of (32 - 2^d), d in 0..4.
        assert CountingSum.combines == sum(32 - 2 ** d for d in range(5))

    def test_rejects_oversized_warp(self):
        with pytest.raises(ValueError):
            warp_scan(list(range(33)), SumMonoid())

    @given(st.lists(st.lists(st.integers(0, NUM_STATES - 1),
                             min_size=NUM_STATES,
                             max_size=NUM_STATES).map(tuple), max_size=32))
    def test_non_commutative(self, lanes):
        m = TransitionComposeMonoid(NUM_STATES)
        assert warp_scan(lanes, m) == inclusive_scan(lanes, m)


class TestBlockScan:
    @given(ints)
    def test_inclusive(self, values):
        assert block_scan(values, SumMonoid()) \
            == inclusive_scan(values, SumMonoid())

    @given(ints)
    def test_exclusive(self, values):
        assert block_scan(values, SumMonoid(), exclusive=True) \
            == exclusive_scan(values, SumMonoid())

    @given(vectors)
    def test_non_commutative(self, values):
        m = TransitionComposeMonoid(NUM_STATES)
        assert block_scan(values, m) == inclusive_scan(values, m)

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 96, 100])
    def test_warp_boundaries(self, n):
        values = list(range(n))
        assert block_scan(values, SumMonoid()) \
            == inclusive_scan(values, SumMonoid())

    def test_small_warp_size(self):
        values = list(range(20))
        assert block_scan(values, SumMonoid(), warp_size=4) \
            == inclusive_scan(values, SumMonoid())


class TestHierarchicalDeviceScan:
    @given(ints, st.sampled_from([32, 64, 128]))
    def test_matches_sequential(self, values, block_size):
        assert hierarchical_device_scan(values, SumMonoid(),
                                        block_size=block_size) \
            == exclusive_scan(values, SumMonoid())

    @given(vectors)
    def test_non_commutative(self, values):
        m = TransitionComposeMonoid(NUM_STATES)
        assert hierarchical_device_scan(values, m, block_size=32) \
            == exclusive_scan(values, m)

    def test_inclusive_variant(self):
        values = [3, 5, 1, 2, 9, 7, 4, 2]
        assert hierarchical_device_scan(values, SumMonoid(), block_size=3,
                                        exclusive=False) \
            == inclusive_scan(values, SumMonoid())

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            hierarchical_device_scan([1], SumMonoid(), block_size=0)
