"""Tests for bit-manipulation helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.reference.utils.bits import (
    bits_required,
    clear_bits_below,
    last_set_bit_position,
    next_power_of_two,
    popcount32,
    popcount64,
    popcount_array,
)


class TestPopcount:
    def test_zero(self):
        assert popcount32(0) == 0
        assert popcount64(0) == 0

    def test_all_ones(self):
        assert popcount32(0xFFFFFFFF) == 32
        assert popcount64(0xFFFFFFFFFFFFFFFF) == 64

    def test_single_bits(self):
        for i in range(32):
            assert popcount32(1 << i) == 1

    def test_masks_to_32_bits(self):
        # Values beyond 32 bits are masked, like the hardware intrinsic.
        assert popcount32((1 << 40) | 0b11) == 2

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_bin_count(self, value):
        assert popcount32(value) == bin(value).count("1")

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_popcount64_matches(self, value):
        assert popcount64(value) == bin(value).count("1")


class TestPopcountArray:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32,
                                       np.uint64])
    def test_matches_scalar(self, dtype):
        rng = np.random.default_rng(1)
        info = np.iinfo(dtype)
        values = rng.integers(0, info.max, size=100,
                              dtype=dtype)
        out = popcount_array(values)
        expected = [bin(int(v)).count("1") for v in values]
        assert out.tolist() == expected

    def test_rejects_signed(self):
        with pytest.raises(TypeError):
            popcount_array(np.array([1, 2], dtype=np.int32))


class TestBitsRequired:
    @pytest.mark.parametrize("count,expected", [
        (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (16, 4), (17, 5), (256, 8),
    ])
    def test_values(self, count, expected):
        assert bits_required(count) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bits_required(0)

    @given(st.integers(min_value=2, max_value=10 ** 9))
    def test_covers_range(self, count):
        bits = bits_required(count)
        assert 2 ** bits >= count
        assert 2 ** (bits - 1) < count


class TestNextPowerOfTwo:
    @pytest.mark.parametrize("value,expected", [
        (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16), (1000, 1024),
    ])
    def test_values(self, value, expected):
        assert next_power_of_two(value) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)


class TestClearBitsBelow:
    def test_example_from_paper(self):
        # §3.2: zero field-delimiter bits preceding the last record bit.
        field_bits = 0b110011
        assert clear_bits_below(field_bits, 3) == 0b110000

    def test_position_zero_is_identity(self):
        assert clear_bits_below(0b1011, 0) == 0b1011

    @given(st.integers(min_value=0, max_value=2 ** 62),
           st.integers(min_value=0, max_value=64))
    def test_no_low_bits_remain(self, value, position):
        cleared = clear_bits_below(value, position)
        assert cleared & ((1 << position) - 1) == 0
        assert cleared & ~((1 << position) - 1) \
            == value & ~((1 << position) - 1)


class TestLastSetBitPosition:
    def test_zero(self):
        assert last_set_bit_position(0) == -1

    @given(st.integers(min_value=1, max_value=2 ** 62))
    def test_matches_bit_length(self, value):
        assert last_set_bit_position(value) == value.bit_length() - 1
