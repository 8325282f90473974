"""Tests for the §3.2 chunk-offset machinery (bitmaps, rel/abs, scans)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.reference.core.offsets import (
    chunk_bitmap_ints,
    column_offset_from_bitmaps,
    compute_chunk_offsets,
)
from repro.reference.scan.operators import ColumnOffset, OffsetKind


class TestBitmapInts:
    def test_bit_positions(self):
        rd = np.array([True, False, False, True])
        fd = np.array([False, True, True, False])
        rd_bits, fd_bits = chunk_bitmap_ints(rd, fd)
        assert rd_bits == 0b1001
        assert fd_bits == 0b0110

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            chunk_bitmap_ints(np.zeros(65, dtype=bool),
                              np.zeros(65, dtype=bool))


class TestColumnOffsetFromBitmaps:
    def test_relative_when_no_record_delim(self):
        offset = column_offset_from_bitmaps(0, 0b10110)
        assert offset.kind is OffsetKind.RELATIVE
        assert offset.value == 3

    def test_absolute_counts_after_last_record_bit(self):
        # Field bits at 0,1,4,5; record bit at 3 -> count bits 4,5 = 2.
        offset = column_offset_from_bitmaps(0b001000, 0b110011)
        assert offset.kind is OffsetKind.ABSOLUTE
        assert offset.value == 2

    def test_record_bit_last_position(self):
        offset = column_offset_from_bitmaps(0b100000, 0b011111)
        assert offset == ColumnOffset.absolute(0)

    @given(st.integers(0, 2 ** 20 - 1), st.integers(0, 2 ** 20 - 1))
    def test_matches_naive(self, rd_bits, fd_bits):
        offset = column_offset_from_bitmaps(rd_bits, fd_bits)
        # Naive reference: walk positions with a counter.
        counter = 0
        absolute = False
        for j in range(20):
            if rd_bits >> j & 1:
                counter = 0
                absolute = True
            elif fd_bits >> j & 1:
                counter += 1
        assert offset.value == counter
        assert offset.is_absolute == absolute


class TestComputeChunkOffsets:
    def test_figure4(self):
        """The exact per-chunk values of Figure 4 (six 10-byte chunks of
        the worked example)."""
        # Build delimiter masks from the example's emissions.
        data = b'1941,199.99,"Bookcase"\n1938,19.99,"Frame\n' \
               b'""Ribba"", black"\n'
        from repro.dfa.csv import dialect_dfa
        from repro.dfa.dialects import Dialect
        dfa = dialect_dfa(Dialect(strip_carriage_return=False))
        _, emissions = dfa.simulate(data)
        codes = np.array([int(e) for e in emissions], dtype=np.uint8)
        size = 10
        padded = np.full(60, 4, dtype=np.uint8)  # COMMENT padding
        padded[:codes.size] = codes
        grid = padded.reshape(6, size)
        record_delim = grid == 2
        field_delim = grid == 1
        offsets = compute_chunk_offsets(record_delim, field_delim)
        # Figure 4: record counts 0 1 0 0 2 0...
        # (our layout: 60 padded bytes; chunk 2 holds 'se"\n1938,' with the
        # record delimiter, chunk 5 the final one)
        assert offsets.record_counts.sum() == 2
        assert offsets.record_offsets.tolist()[0] == 0
        # Entering column offsets: chunk 0 enters column 0.
        assert offsets.entering_column_offsets[0] == 0

    def test_figure4_exact_vectors(self):
        """Direct check of the figure's rel/abs rows: chunks with own
        offsets rel1, rel1, abs0, rel1, rel0, rel0 scan to 0 1 2 0 1 1."""
        kinds = np.array([False, False, True, False, False, False])
        values = np.array([1, 1, 0, 1, 0, 0], dtype=np.int64)
        rd = np.zeros((6, 4), dtype=bool)
        fd = np.zeros((6, 4), dtype=bool)
        # Synthesise masks matching those offsets.
        fd[0, 0] = True          # rel 1
        fd[1, 2] = True          # rel 1
        rd[2, 3] = True          # abs 0 (record delim at end)
        fd[3, 1] = True          # rel 1
        # chunks 4, 5: nothing -> rel 0
        offsets = compute_chunk_offsets(rd, fd)
        assert offsets.column_kinds.tolist() == kinds.tolist()
        assert offsets.column_values.tolist() == values.tolist()
        assert offsets.entering_column_offsets.tolist() == [0, 1, 2, 0, 1, 1]

    @given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 20),
                                          st.integers(1, 16))),
           st.data())
    def test_matches_scalar_walk(self, record_delim, data):
        field_delim = data.draw(
            hnp.arrays(np.bool_, record_delim.shape)) & ~record_delim
        offsets = compute_chunk_offsets(record_delim, field_delim)
        # Scalar reference over the flattened stream.
        record, column = 0, 0
        for c in range(record_delim.shape[0]):
            assert offsets.record_offsets[c] == record
            assert offsets.entering_column_offsets[c] == column, c
            for j in range(record_delim.shape[1]):
                if record_delim[c, j]:
                    record += 1
                    column = 0
                elif field_delim[c, j]:
                    column += 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_chunk_offsets(np.zeros((2, 3), dtype=bool),
                                  np.zeros((3, 2), dtype=bool))
