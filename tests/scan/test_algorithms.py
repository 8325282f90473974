"""Cross-algorithm scan equivalence: every parallel scan == sequential.

The key property: with any associative operator — including the paper's
non-commutative STV composition — Hillis–Steele, Blelloch, and the
Merrill–Garland single-pass scan must all produce exactly the sequential
scan, for any input length (power of two or not) and, for the single-pass
scan, any tile size and any tile scheduling order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.reference.scan.blelloch import blelloch_scan
from repro.reference.scan.decoupled_lookback import (ScanStatistics,
                                                    single_pass_scan)
from repro.reference.scan.hillis_steele import hillis_steele_scan
from repro.reference.scan.operators import SumMonoid, TransitionComposeMonoid
from repro.reference.scan.sequential import (exclusive_scan,
                                            inclusive_scan, reduce)

NUM_STATES = 4

ints = st.lists(st.integers(min_value=-100, max_value=100), max_size=64)
vectors = st.lists(
    st.lists(st.integers(min_value=0, max_value=NUM_STATES - 1),
             min_size=NUM_STATES, max_size=NUM_STATES).map(tuple),
    max_size=32)


class TestSequentialScan:
    def test_paper_example(self):
        # The worked prefix-sum example of paper §2.
        x = [3, 5, 1, 2, 9, 7, 4, 2]
        assert inclusive_scan(x, SumMonoid()) == [3, 8, 9, 11, 20, 27, 31, 33]
        assert exclusive_scan(x, SumMonoid()) == [0, 3, 8, 9, 11, 20, 27, 31]

    def test_empty(self):
        assert inclusive_scan([], SumMonoid()) == []
        assert exclusive_scan([], SumMonoid()) == []
        assert reduce([], SumMonoid()) == 0

    def test_reduce(self):
        assert reduce([1, 2, 3], SumMonoid()) == 6


class TestHillisSteele:
    @given(ints)
    def test_matches_sequential_sum(self, data):
        assert hillis_steele_scan(data, SumMonoid()) \
            == inclusive_scan(data, SumMonoid())

    @given(ints)
    def test_exclusive(self, data):
        assert hillis_steele_scan(data, SumMonoid(), exclusive=True) \
            == exclusive_scan(data, SumMonoid())

    @given(vectors)
    def test_non_commutative(self, data):
        m = TransitionComposeMonoid(NUM_STATES)
        assert hillis_steele_scan(data, m) == inclusive_scan(data, m)


class TestBlelloch:
    @given(ints)
    def test_exclusive_matches_sequential(self, data):
        assert blelloch_scan(data, SumMonoid()) \
            == exclusive_scan(data, SumMonoid())

    @given(ints)
    def test_inclusive(self, data):
        assert blelloch_scan(data, SumMonoid(), exclusive=False) \
            == inclusive_scan(data, SumMonoid())

    @given(vectors)
    def test_non_commutative(self, data):
        # The down-sweep must preserve left-to-right combine order.
        m = TransitionComposeMonoid(NUM_STATES)
        assert blelloch_scan(data, m) == exclusive_scan(data, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33])
    def test_non_power_of_two_lengths(self, n):
        data = list(range(n))
        assert blelloch_scan(data, SumMonoid()) \
            == exclusive_scan(data, SumMonoid())


class TestSinglePassScan:
    @given(ints, st.integers(min_value=1, max_value=9))
    def test_matches_sequential(self, data, tile_size):
        assert single_pass_scan(data, SumMonoid(), tile_size=tile_size) \
            == exclusive_scan(data, SumMonoid())

    @given(vectors, st.integers(min_value=1, max_value=5))
    def test_non_commutative(self, data, tile_size):
        m = TransitionComposeMonoid(NUM_STATES)
        assert single_pass_scan(data, m, tile_size=tile_size) \
            == exclusive_scan(data, m)

    @given(st.randoms(use_true_random=False),
           st.lists(st.integers(-50, 50), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=6))
    def test_any_schedule(self, rng, data, tile_size):
        # Out-of-order tile scheduling (deferred look-backs) must not
        # change the result.
        num_tiles = -(-len(data) // tile_size)
        schedule = list(range(num_tiles))
        rng.shuffle(schedule)
        assert single_pass_scan(data, SumMonoid(), tile_size=tile_size,
                                schedule=schedule) \
            == exclusive_scan(data, SumMonoid())

    def test_inclusive(self):
        data = [3, 5, 1, 2]
        assert single_pass_scan(data, SumMonoid(), tile_size=2,
                                exclusive=False) \
            == inclusive_scan(data, SumMonoid())

    def test_lookback_statistics(self):
        stats = ScanStatistics()
        single_pass_scan(list(range(20)), SumMonoid(), tile_size=4,
                         statistics=stats)
        assert stats.tiles == 5
        # In-order execution: every tile finds its predecessor's inclusive
        # prefix immediately (single-step look-back).
        assert stats.max_lookback == 1

    def test_reverse_schedule_defers(self):
        stats = ScanStatistics()
        single_pass_scan(list(range(12)), SumMonoid(), tile_size=4,
                         schedule=[2, 1, 0], statistics=stats)
        assert stats.deferred_tiles > 0

    def test_rejects_bad_schedule(self):
        with pytest.raises(ValueError):
            single_pass_scan([1, 2, 3], SumMonoid(), tile_size=2,
                             schedule=[0, 0])

    def test_rejects_bad_tile_size(self):
        with pytest.raises(ValueError):
            single_pass_scan([1], SumMonoid(), tile_size=0)
