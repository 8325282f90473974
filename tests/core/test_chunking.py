"""Tests for chunking and variable-length symbol boundary handling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.chunking import chunk_groups
from repro.reference.core.chunking import (
    SymbolReader,
    utf8_leading_skip,
    utf16_leading_skip,
)
from repro.errors import ParseError


class TestChunkGroups:
    def test_exact_multiple(self, csv_dfa):
        data = np.frombuffer(b"a,b\nc,d\n", dtype=np.uint8)
        groups, chunking, padded = chunk_groups(data, csv_dfa, 4)
        assert groups.shape == (2, 4)
        assert chunking.padding == 0
        assert padded.group_names[-1] == "PAD"

    def test_padding(self, csv_dfa):
        data = np.frombuffer(b"abcde", dtype=np.uint8)
        groups, chunking, padded = chunk_groups(data, csv_dfa, 4)
        assert groups.shape == (2, 4)
        assert chunking.padding == 3
        pad_group = padded.num_groups - 1
        assert groups[1, 1:].tolist() == [pad_group] * 3

    def test_empty_input_one_chunk(self, csv_dfa):
        data = np.frombuffer(b"", dtype=np.uint8)
        groups, chunking, padded = chunk_groups(data, csv_dfa, 8)
        assert groups.shape == (1, 8)
        assert chunking.num_chunks == 1

    def test_group_mapping(self, csv_dfa):
        data = np.frombuffer(b',x"\n', dtype=np.uint8)
        groups, _, _ = chunk_groups(data, csv_dfa, 4)
        assert groups[0].tolist() == [2, 3, 1, 0]

    def test_rejects_bad_chunk_size(self, csv_dfa):
        with pytest.raises(ParseError):
            chunk_groups(np.frombuffer(b"x", dtype=np.uint8), csv_dfa, 0)

    def test_rejects_wrong_dtype(self, csv_dfa):
        with pytest.raises(ParseError):
            chunk_groups(np.zeros(4, dtype=np.int32), csv_dfa, 4)


class TestUtf8Skip:
    def test_ascii_no_skip(self):
        assert utf8_leading_skip(b"abc") == 0

    def test_continuation_bytes(self):
        # é = 0xC3 0xA9; a chunk starting at the 0xA9 skips one byte.
        encoded = "é".encode("utf-8")
        assert utf8_leading_skip(encoded[1:] + b"xy") == 1

    def test_three_continuations(self):
        # 𝄞 (U+1D11E) = F0 9D 84 9E: starting at byte 1 skips 3.
        encoded = "𝄞".encode("utf-8")
        assert utf8_leading_skip(encoded[1:]) == 3
        assert utf8_leading_skip(encoded[2:]) == 2
        assert utf8_leading_skip(encoded[3:]) == 1

    def test_empty(self):
        assert utf8_leading_skip(b"") == 0

    @given(st.text(min_size=1, max_size=30),
           st.integers(min_value=0, max_value=100))
    def test_skip_lands_on_boundary(self, text, start):
        data = text.encode("utf-8")
        start = min(start, len(data))
        skip = utf8_leading_skip(data[start:])
        head = data[start + skip:]
        # After skipping, the remainder decodes from a code point start.
        if head:
            assert (head[0] & 0xC0) != 0x80


class TestUtf16Skip:
    def test_bmp_no_skip(self):
        data = "ab".encode("utf-16-le")
        assert utf16_leading_skip(data) == 0

    def test_low_surrogate_skipped(self):
        # 𝄞 encodes as a surrogate pair; starting at the low surrogate
        # skips two bytes.
        data = "𝄞".encode("utf-16-le")
        assert utf16_leading_skip(data[2:]) == 2
        assert utf16_leading_skip(data) == 0

    def test_short_chunk(self):
        assert utf16_leading_skip(b"\x00") == 0


class TestSymbolReader:
    @given(st.text(max_size=50), st.integers(0, 20), st.integers(1, 16))
    def test_chunked_reads_cover_input_utf8(self, text, _seed, chunk_size):
        """Union of all chunk readers == the full code-point sequence,
        each code point read exactly once (by its leading chunk)."""
        data = text.encode("utf-8")
        expected = [ord(c) for c in text]
        collected: list[int] = []
        for start in range(0, max(len(data), 1), chunk_size):
            reader = SymbolReader(data, start, chunk_size)
            collected.extend(reader)
        assert collected == expected

    @given(st.text(max_size=40), st.integers(1, 8))
    def test_chunked_reads_cover_input_utf16(self, text, units):
        chunk_size = units * 2  # integer multiple of the code unit
        data = text.encode("utf-16-le")
        expected = [ord(c) for c in text]
        collected: list[int] = []
        for start in range(0, max(len(data), 1), chunk_size):
            reader = SymbolReader(data, start, chunk_size,
                                  encoding="utf-16-le")
            collected.extend(reader)
        assert collected == expected

    def test_rejects_unknown_encoding(self):
        with pytest.raises(ParseError):
            SymbolReader(b"", 0, 4, encoding="latin-1")

    def test_invalid_utf8_raises(self):
        with pytest.raises(ParseError):
            list(SymbolReader(b"\xff", 0, 4))
