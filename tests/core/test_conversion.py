"""Tests for column conversion: defaults, NULLs, rejects, collaboration."""

import numpy as np
import pytest

from repro.columnar.schema import DataType, Field
from repro.core.conversion import (BLOCK_THRESHOLD, DEVICE_THRESHOLD,
                                   CollaborationStats, convert_column)
from repro.core.css import ColumnIndex
from repro.core.options import ParseOptions
from repro.core.scalar_convert import convert_scalar
from repro.errors import ConversionError


def make_index(fields: list[bytes], records: list[int]):
    css = np.frombuffer(b"".join(fields), dtype=np.uint8)
    lengths = np.array([len(f) for f in fields], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]) \
        .astype(np.int64)
    return css, ColumnIndex(records=np.array(records, dtype=np.int64),
                            offsets=offsets, lengths=lengths)


IDENTITY = ParseOptions()


class TestFixedWidth:
    def test_basic_int(self):
        css, index = make_index([b"7", b"42"], [0, 1])
        rows = np.array([0, 1])
        column, stats = convert_column(Field("x", DataType.INT64), css,
                                       index, rows, 2, IDENTITY)
        assert column.to_list() == [7, 42]
        assert stats.thread_fields == 2

    def test_missing_record_is_null(self):
        css, index = make_index([b"7"], [0])
        rows = np.array([0, -1, 1])  # record 1 dropped, record 2 -> row 1
        column, _ = convert_column(Field("x", DataType.INT64), css, index,
                                   rows, 2, IDENTITY)
        assert column.to_list() == [7, None]

    def test_default_fills_missing(self):
        css, index = make_index([b"7"], [1])
        rows = np.array([0, 1])
        field = Field("x", DataType.INT64, default=99)
        column, _ = convert_column(field, css, index, rows, 2, IDENTITY)
        assert column.to_list() == [99, 7]

    def test_reject_clears_validity_and_counts(self):
        css, index = make_index([b"oops", b"3"], [0, 1])
        rows = np.array([0, 1])
        column, _ = convert_column(Field("x", DataType.INT64), css, index,
                                   rows, 2, IDENTITY)
        assert column.to_list() == [None, 3]
        assert column.rejects == 1

    def test_reject_overrides_default(self):
        css, index = make_index([b"oops"], [0])
        rows = np.array([0])
        field = Field("x", DataType.INT64, default=5)
        column, _ = convert_column(field, css, index, rows, 1, IDENTITY)
        assert column.to_list() == [None]

    def test_strict_raises_on_reject(self):
        css, index = make_index([b"bad"], [0])
        rows = np.array([0])
        with pytest.raises(ConversionError):
            convert_column(Field("x", DataType.INT64), css, index, rows,
                           1, IDENTITY.with_(strict=True))

    def test_scalar_path_equals_vector_path(self):
        fields = [b"1.5", b"-2", b"x", b"1e3", b"0.001"]
        css, index = make_index(fields, list(range(5)))
        rows = np.arange(5)
        field = Field("f", DataType.FLOAT64)
        vector, _ = convert_column(field, css, index, rows, 5, IDENTITY)
        scalar = [convert_scalar(field, text) for text in fields]
        assert vector.to_list() == [value for value, _ in scalar]
        assert vector.rejects == sum(not ok for _, ok in scalar)

    def test_non_nullable_gets_zero_default(self):
        css, index = make_index([b"1"], [0])
        rows = np.array([0, 1])
        field = Field("x", DataType.INT64, nullable=False)
        column, _ = convert_column(field, css, index, rows, 2, IDENTITY)
        assert column.to_list() == [1, 0]

    def test_out_of_range_record_ignored(self):
        css, index = make_index([b"1", b"2"], [0, 7])
        rows = np.array([0])
        column, _ = convert_column(Field("x", DataType.INT64), css, index,
                                   rows, 1, IDENTITY)
        assert column.to_list() == [1]


class TestStringColumn:
    def test_basic(self):
        css, index = make_index([b"ab", b"cde"], [0, 1])
        rows = np.array([0, 1])
        column, _ = convert_column(Field("s", DataType.STRING), css,
                                   index, rows, 2, IDENTITY)
        assert column.to_list() == ["ab", "cde"]

    def test_missing_is_null(self):
        css, index = make_index([b"ab"], [1])
        rows = np.array([0, 1, 2])
        column, _ = convert_column(Field("s", DataType.STRING), css,
                                   index, rows, 3, IDENTITY)
        assert column.to_list() == [None, "ab", None]

    def test_string_default(self):
        css, index = make_index([b"ab"], [1])
        rows = np.array([0, 1])
        field = Field("s", DataType.STRING, default="n/a")
        column, _ = convert_column(field, css, index, rows, 2, IDENTITY)
        assert column.to_list() == ["n/a", "ab"]

    def test_non_nullable_empty_string_default(self):
        css, index = make_index([b"x"], [0])
        rows = np.array([0, 1])
        field = Field("s", DataType.STRING, nullable=False)
        column, _ = convert_column(field, css, index, rows, 2, IDENTITY)
        assert column.to_list() == ["x", ""]

    def test_rows_out_of_order(self):
        css, index = make_index([b"first", b"second"], [0, 1])
        rows = np.array([1, 0])  # record 0 -> row 1, record 1 -> row 0
        column, _ = convert_column(Field("s", DataType.STRING), css,
                                   index, rows, 2, IDENTITY)
        assert column.to_list() == ["second", "first"]


class TestCollaborationLevels:
    def test_classification(self):
        css, index = make_index(
            [b"ab", b"x" * (BLOCK_THRESHOLD + 1),
             b"x" * (DEVICE_THRESHOLD + 1)], [0, 1, 2])
        rows = np.arange(3)
        _, stats = convert_column(Field("s", DataType.STRING), css, index,
                                  rows, 3, IDENTITY)
        assert stats.thread_fields == 1
        assert stats.block_fields == 1
        assert stats.device_fields == 1
        assert stats.total_fields == 3

    def test_stats_addition(self):
        total = CollaborationStats(1, 2, 3) + CollaborationStats(4, 5, 6)
        assert (total.thread_fields, total.block_fields,
                total.device_fields) == (5, 7, 9)
