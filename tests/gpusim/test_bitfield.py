"""Tests for the PTX-style bit intrinsics."""

import pytest
from hypothesis import given, strategies as st

from repro.reference.gpusim.bitfield import (NOT_FOUND, bfe, bfi, bfind,
                                            brev, popc)

u32 = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestBfi:
    def test_basic_insert(self):
        assert bfi(0b101, 0, 4, 3) == 0b1010000

    def test_preserves_other_bits(self):
        assert bfi(0b11, 0xFF00, 4, 2) == 0xFF30

    def test_zero_length_is_identity(self):
        assert bfi(0xFF, 0x12345678, 8, 0) == 0x12345678

    def test_offset_beyond_register(self):
        assert bfi(0xFF, 0xABCD, 32, 8) == 0xABCD

    def test_clamps_at_register_boundary(self):
        # Inserting 8 bits at offset 28 keeps only the low 4.
        assert bfi(0xFF, 0, 28, 8) == 0xF0000000

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bfi(1, 0, -1, 4)
        with pytest.raises(ValueError):
            bfi(-1, 0, 0, 4)

    @given(u32, u32, st.integers(0, 31), st.integers(1, 32))
    def test_roundtrip_with_bfe(self, source, target, offset, length):
        inserted = bfi(source, target, offset, length)
        effective = min(length, 32 - offset)
        assert bfe(inserted, offset, length) \
            == source & ((1 << effective) - 1)


class TestBfe:
    def test_basic_extract(self):
        assert bfe(0x50, 4, 3) == 5

    def test_reads_zero_beyond_register(self):
        assert bfe(0xFFFFFFFF, 32, 8) == 0

    def test_zero_length(self):
        assert bfe(0xFF, 0, 0) == 0

    @given(u32)
    def test_full_extract_is_identity(self, value):
        assert bfe(value, 0, 32) == value


class TestBfind:
    def test_zero_returns_not_found(self):
        assert bfind(0) == NOT_FOUND == 0xFFFFFFFF

    def test_msb(self):
        assert bfind(0x80000000) == 31
        assert bfind(1) == 0

    @given(st.integers(min_value=1, max_value=2 ** 32 - 1))
    def test_matches_bit_length(self, value):
        assert bfind(value) == value.bit_length() - 1

    def test_sentinel_shift_trick(self):
        # Table 2: bfind(no-match) >> 3 gives the 0x1FFFFFFF sentinel.
        assert bfind(0) >> 3 == 0x1FFFFFFF


class TestPopcBrev:
    @given(u32)
    def test_popc(self, value):
        assert popc(value) == bin(value).count("1")

    @given(u32)
    def test_brev_involution(self, value):
        assert brev(brev(value)) == value

    def test_brev_basic(self):
        assert brev(1) == 0x80000000
        assert brev(0xF0000000) == 0x0000000F
