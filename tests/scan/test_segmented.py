"""Tests for the segmented scan and its derived monoid."""

import pytest
from hypothesis import given, strategies as st

from repro.reference.scan.operators import SumMonoid
from repro.reference.scan.segmented import (SegmentedMonoid,
                                           segmented_inclusive_scan)


class TestSegmentedMonoid:
    pairs = st.tuples(st.booleans(), st.integers(-50, 50))

    @given(pairs, pairs, pairs)
    def test_associative(self, a, b, c):
        m = SegmentedMonoid(SumMonoid())
        assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))

    @given(pairs)
    def test_identity(self, a):
        m = SegmentedMonoid(SumMonoid())
        assert m.combine(m.identity(), a) == a

    def test_flag_resets(self):
        m = SegmentedMonoid(SumMonoid())
        assert m.combine((False, 10), (True, 1)) == (True, 1)
        assert m.combine((True, 10), (False, 1)) == (True, 11)


class TestSegmentedScan:
    def test_docstring_example(self):
        out = segmented_inclusive_scan(
            [1, 1, 1, 1, 1], [True, False, True, False, False], SumMonoid())
        assert out == [1, 2, 1, 2, 3]

    def test_no_flags_is_plain_scan(self):
        out = segmented_inclusive_scan([1, 2, 3], [False] * 3, SumMonoid())
        assert out == [1, 3, 6]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            segmented_inclusive_scan([1], [True, False], SumMonoid())

    @given(st.lists(st.tuples(st.booleans(), st.integers(-20, 20)),
                    max_size=100))
    def test_matches_per_segment_cumsum(self, flagged):
        flags = [f for f, _ in flagged]
        values = [v for _, v in flagged]
        out = segmented_inclusive_scan(values, flags, SumMonoid())
        # Reference: reset a running sum at each head flag.
        acc = 0
        expected = []
        for flag, value in zip(flags, values):
            acc = value if flag else acc + value
            expected.append(acc)
        assert out == expected
