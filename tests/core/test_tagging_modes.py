"""Unit tests for the tagging-mode mechanics module (§4.1)."""

import numpy as np
import pytest

from repro.core.options import ParseOptions, TaggingMode
from repro.core.partition import partition_field_runs
from repro.reference.core.partition import partition_by_column
from repro.core.tagging_modes import build_keep_mask, column_indexes, \
    prepare_css
from repro.errors import ParseError


def make_partition(data: bytes, keep, columns, records, num_columns):
    return partition_by_column(
        np.frombuffer(data, dtype=np.uint8),
        np.asarray(keep, dtype=bool),
        np.asarray(columns, dtype=np.int64),
        np.asarray(records, dtype=np.int64), num_columns)


class TestKeepMask:
    DATA = np.array([True, False, True, False], dtype=bool)
    DELIM = np.array([False, True, False, True], dtype=bool)
    OK = np.ones(4, dtype=bool)

    def test_tagged_keeps_data_only(self):
        keep = build_keep_mask(TaggingMode.TAGGED, self.DATA, None,
                               self.OK)
        assert keep.tolist() == [True, False, True, False]

    def test_inline_keeps_delimiters_too(self):
        keep = build_keep_mask(TaggingMode.INLINE, self.DATA, self.DELIM,
                               None)
        assert keep.tolist() == [True, True, True, True]

    def test_filters_apply(self):
        no = np.zeros(4, dtype=bool)
        keep = build_keep_mask(TaggingMode.DELIMITED, self.DATA,
                               self.DELIM, no)
        assert not keep.any()


class TestPrepareCss:
    def test_inline_substitutes_terminator(self):
        # 'ab,c\n' with delimiters kept: positions 2 and 4 are delims.
        data = b"ab,c\n"
        keep = [True] * 5
        columns = [0, 0, 0, 1, 1]
        records = [0] * 5
        part = make_partition(data, keep, columns, records, 2)
        delim_mask = np.array([False, False, True, False, True])
        options = ParseOptions(tagging_mode=TaggingMode.INLINE)
        css, aux = prepare_css(TaggingMode.INLINE, part, delim_mask,
                               options)
        assert css.tobytes() == b"ab\x1ec\x1e"
        assert aux.tolist() == [False, False, True, False, True]

    def test_inline_rejects_terminator_in_data(self):
        data = b"a\x1e,b\n"
        keep = [True] * 5
        columns = [0, 0, 0, 1, 1]
        records = [0] * 5
        part = make_partition(data, keep, columns, records, 2)
        delim_mask = np.array([False, False, True, False, True])
        options = ParseOptions(tagging_mode=TaggingMode.INLINE)
        with pytest.raises(ParseError, match="terminator"):
            prepare_css(TaggingMode.INLINE, part, delim_mask, options)

    def test_delimited_leaves_bytes_alone(self):
        data = b"a,b\n"
        part = make_partition(data, [True] * 4, [0, 0, 1, 1], [0] * 4, 2)
        delim_mask = np.array([False, True, False, True])
        options = ParseOptions(tagging_mode=TaggingMode.DELIMITED)
        css, aux = prepare_css(TaggingMode.DELIMITED, part, delim_mask,
                               options)
        assert css.tobytes() == b"a,b\n"
        assert aux.tolist() == [False, True, False, True]


class TestColumnIndexes:
    def test_tagged_indexes_by_record_runs(self):
        # 'aa\nbb': two one-field records; the field runs are the index.
        data = np.frombuffer(b"aa\nbb", dtype=np.uint8)
        part = partition_field_runs(
            data, data != ord("\n"), np.array([2], dtype=np.int64),
            np.array([0, 0], dtype=np.int64),
            np.array([0, 1], dtype=np.int64), 1)
        options = ParseOptions()
        indexes = column_indexes(TaggingMode.TAGGED, part, part.css,
                                 None, options)
        assert indexes[0].records.tolist() == [0, 1]
        assert indexes[0].offsets.tolist() == [0, 2]
        assert indexes[0].lengths.tolist() == [2, 2]

    def test_tagged_mode_requires_field_geometry(self):
        """A radix-sort partition carries no field runs; the pipeline
        never hands one to the record-tagged index."""
        part = make_partition(b"aabb", [True] * 4, [0, 0, 0, 0],
                              [0, 0, 1, 1], 1)
        with pytest.raises(ParseError, match="field geometry"):
            column_indexes(TaggingMode.TAGGED, part, part.css, None,
                           ParseOptions())

    def test_inline_indexes_by_terminators(self):
        data = b"ab\x1ec\x1e"
        part = make_partition(data, [True] * 5, [0] * 5, [0] * 5, 1)
        options = ParseOptions(tagging_mode=TaggingMode.INLINE)
        indexes = column_indexes(TaggingMode.INLINE, part, part.css,
                                 part.css == 0x1E, options)
        assert indexes[0].lengths.tolist() == [2, 1]
