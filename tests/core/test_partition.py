"""Tests for the stable radix-sort partition (§3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import ParPaRawParser, ParseOptions
from repro.columnar.serialize import write_feather
from repro.core import partition as partition_module, tagging
from repro.core.partition import partition_field_runs
from repro.reference.core.partition import (partition_by_column,
                                            stable_radix_sort)
from repro.core.tagging import index_dtype, segment_lengths
from repro.errors import ParseError
from repro.workloads import TAXI_SCHEMA, generate_taxi_like


class TestStableRadixSort:
    @given(hnp.arrays(np.int64, st.integers(0, 300),
                      elements=st.integers(0, 40)),
           st.sampled_from([1, 2, 4, 8, 16]))
    def test_sorted_and_stable(self, keys, radix_bits):
        perm = stable_radix_sort(keys, radix_bits=radix_bits)
        sorted_keys = keys[perm]
        assert np.all(sorted_keys[:-1] <= sorted_keys[1:]) \
            if keys.size else True
        # Stability: among equal keys, original order preserved.
        for value in np.unique(keys):
            positions = perm[sorted_keys == value]
            assert np.all(positions[:-1] < positions[1:])

    @given(hnp.arrays(np.int64, st.integers(0, 200),
                      elements=st.integers(0, 100)))
    def test_matches_numpy_stable(self, keys):
        perm = stable_radix_sort(keys)
        expected = np.argsort(keys, kind="stable")
        assert perm.tolist() == expected.tolist()

    def test_is_permutation(self):
        keys = np.array([3, 1, 3, 0, 2, 1])
        perm = stable_radix_sort(keys, radix_bits=1)
        assert sorted(perm.tolist()) == list(range(6))

    def test_empty(self):
        assert stable_radix_sort(np.array([], dtype=np.int64)).size == 0

    def test_multi_pass(self):
        # Keys needing several 2-bit passes.
        keys = np.array([255, 0, 128, 64, 192, 1])
        perm = stable_radix_sort(keys, radix_bits=2)
        assert keys[perm].tolist() == sorted(keys.tolist())

    def test_rejects_negative_keys(self):
        with pytest.raises(ParseError):
            stable_radix_sort(np.array([-1, 2]))

    def test_rejects_bad_radix(self):
        with pytest.raises(ParseError):
            stable_radix_sort(np.array([1]), radix_bits=0)
        with pytest.raises(ParseError):
            stable_radix_sort(np.array([1]), radix_bits=17)

    def test_rejects_2d(self):
        with pytest.raises(ParseError):
            stable_radix_sort(np.zeros((2, 2), dtype=np.int64))


class TestPartitionByColumn:
    def test_figure5_layout(self):
        """Figure 5: symbols partitioned into per-column CSSs, record
        tags moved along, offsets from the histogram."""
        data = np.frombuffer(b"19411938x199.9919.99y", dtype=np.uint8)
        #                      col0 col0  ?  col1  col1  ?
        column_ids = np.array([0] * 4 + [0] * 4 + [9] + [1] * 6 + [1] * 5
                              + [9])
        record_ids = np.array([0] * 4 + [1] * 4 + [0] + [0] * 6 + [1] * 5
                              + [1])
        keep = column_ids != 9
        part = partition_by_column(data, keep, column_ids, record_ids,
                                   num_columns=2)
        assert part.column_css(0).tobytes() == b"19411938"
        assert part.column_css(1).tobytes() == b"199.9919.99"
        assert part.column_offsets.tolist() == [0, 8, 19]
        assert part.column_record_tags(0).tolist() == [0] * 4 + [1] * 4

    def test_order_gathers_payload(self):
        data = np.frombuffer(b"ba", dtype=np.uint8)
        column_ids = np.array([1, 0])
        record_ids = np.array([0, 0])
        keep = np.ones(2, dtype=bool)
        part = partition_by_column(data, keep, column_ids, record_ids, 2)
        assert part.css.tobytes() == b"ab"
        assert part.order.tolist() == [1, 0]

    def test_empty_columns_have_empty_css(self):
        data = np.frombuffer(b"xy", dtype=np.uint8)
        part = partition_by_column(data, np.ones(2, dtype=bool),
                                   np.array([2, 2]), np.array([0, 0]), 4)
        assert part.column_css(0).size == 0
        assert part.column_css(2).tobytes() == b"xy"
        assert part.column_css(3).size == 0

    def test_rejects_overflowing_tags(self):
        data = np.frombuffer(b"x", dtype=np.uint8)
        with pytest.raises(ParseError):
            partition_by_column(data, np.ones(1, dtype=bool),
                                np.array([5]), np.array([0]), 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParseError):
            partition_by_column(np.zeros(2, dtype=np.uint8),
                                np.ones(3, dtype=bool),
                                np.zeros(2, dtype=np.int64),
                                np.zeros(2, dtype=np.int64), 1)

    @given(st.data())
    @settings(max_examples=60)
    def test_preserves_order_within_column(self, data):
        n = data.draw(st.integers(0, 150))
        payload = data.draw(hnp.arrays(np.uint8, n))
        columns = data.draw(hnp.arrays(np.int64, n,
                                       elements=st.integers(0, 5)))
        records = data.draw(hnp.arrays(np.int64, n,
                                       elements=st.integers(0, 8)))
        keep = data.draw(hnp.arrays(np.bool_, n))
        part = partition_by_column(payload, keep, columns, records, 6)
        for c in range(6):
            expected = payload[keep & (columns == c)]
            assert part.column_css(c).tolist() == expected.tolist()
            expected_tags = records[keep & (columns == c)]
            assert part.column_record_tags(c).tolist() \
                == expected_tags.tolist()


def _runsy(data, n, num_cols):
    """Draw run-structured (column, record) tag arrays of length n."""
    col = np.empty(n, dtype=np.int64)
    rec = np.empty(n, dtype=np.int64)
    pos = 0
    record = 0
    while pos < n:
        length = data.draw(st.integers(1, 12))
        column = data.draw(st.integers(0, num_cols - 1))
        end = min(n, pos + length)
        col[pos:end] = column
        rec[pos:end] = record
        if data.draw(st.booleans()):
            record += 1
        pos = end
    return col, rec


def segments_of(columns, records):
    """Segment form of per-symbol tags: cut wherever either tag changes.

    Returns ``(delim_positions, segment_columns, segment_records)``: a
    segment ends at position ``i`` when symbol ``i + 1`` carries other
    tags, so expanding the segments reproduces the tags exactly.
    """
    columns = np.asarray(columns, dtype=np.int64)
    records = np.asarray(records, dtype=np.int64)
    ends = np.flatnonzero((columns[1:] != columns[:-1])
                          | (records[1:] != records[:-1]))
    starts = np.append(0, ends + 1)
    if not columns.size:
        return ends, np.zeros(1, dtype=np.int64), np.zeros(1, np.int64)
    return ends, columns[starts], records[starts]


def field_runs(data, keep, columns, records, num_columns):
    """:func:`partition_field_runs` over per-symbol tags."""
    return partition_field_runs(data, keep,
                                *segments_of(columns, records),
                                num_columns)


def assert_same_partition(a, b):
    assert a.css.tolist() == b.css.tolist()
    assert a.record_tags.tolist() == b.record_tags.tolist()
    assert a.column_offsets.tolist() == b.column_offsets.tolist()
    assert a.order.tolist() == b.order.tolist()


@pytest.fixture
def tiny_gather_blocks(monkeypatch):
    """Gather blocks of a few symbols, so runs straddle block edges."""
    monkeypatch.setattr(partition_module, "GATHER_BLOCK", 5)


@pytest.mark.usefixtures("tiny_gather_blocks")
class TestPartitionFieldRuns:
    """The O(n + num_fields) strategy must match the radix sort bit for
    bit — including the stable ``order`` permutation."""

    @given(st.data())
    @settings(max_examples=80)
    def test_parity_with_radix_arbitrary_tags(self, data):
        n = data.draw(st.integers(0, 150))
        # Past 256 columns the runs sort on uint16 keys instead of uint8.
        num_cols = data.draw(st.one_of(st.integers(1, 6),
                                       st.integers(250, 300)))
        payload = data.draw(hnp.arrays(np.uint8, n))
        columns = data.draw(hnp.arrays(
            np.int64, n, elements=st.integers(0, num_cols - 1)))
        records = data.draw(hnp.arrays(np.int64, n,
                                       elements=st.integers(0, 8)))
        keep = data.draw(hnp.arrays(np.bool_, n))
        a = partition_by_column(payload, keep, columns, records, num_cols)
        b = field_runs(payload, keep, columns, records, num_cols)
        assert_same_partition(a, b)

    @given(st.data(), st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=60)
    def test_parity_across_radix_bits(self, data, radix_bits):
        n = data.draw(st.integers(0, 120))
        num_cols = data.draw(st.integers(1, 5))
        payload = data.draw(hnp.arrays(np.uint8, n))
        columns, records = _runsy(data, n, num_cols)
        keep = data.draw(hnp.arrays(np.bool_, n))
        a = partition_by_column(payload, keep, columns, records,
                                num_cols, radix_bits=radix_bits)
        b = field_runs(payload, keep, columns, records, num_cols)
        assert_same_partition(a, b)

    @given(st.data())
    @settings(max_examples=60)
    def test_delimiter_segments_match_radix(self, data):
        """Segments cut at arbitrary delimiter positions — neighbours may
        share tags, as two fields of one column in consecutive records
        do — give the radix result over the expanded tags, whether the
        delimiters are dropped or kept."""
        n = data.draw(st.integers(1, 120))
        num_cols = data.draw(st.integers(1, 5))
        payload = data.draw(hnp.arrays(np.uint8, n))
        delims = np.array(sorted(data.draw(st.sets(
            st.integers(0, n - 1), max_size=12))), dtype=np.int64)
        seg_cols = np.array([data.draw(st.integers(0, num_cols - 1))
                             for _ in range(delims.size + 1)],
                            dtype=np.int64)
        seg_recs = np.array([data.draw(st.integers(0, 3))
                             for _ in range(delims.size + 1)],
                            dtype=np.int64)
        lengths = segment_lengths(delims, n)
        keep = data.draw(hnp.arrays(np.bool_, n))
        if data.draw(st.booleans()):
            # The inline/delimited keep mask keeps every delimiter.
            keep[delims] = True
        a = partition_by_column(payload, keep,
                                np.repeat(seg_cols, lengths),
                                np.repeat(seg_recs, lengths), num_cols)
        b = partition_field_runs(payload, keep, delims, seg_cols,
                                 seg_recs, num_cols)
        assert_same_partition(a, b)

    @given(st.data())
    @settings(max_examples=40)
    def test_int32_segments_match_int64(self, data):
        """Tagging hands over int32 segment arrays whenever the input
        fits (int64 past 2 GiB); the partition computes in the width it
        is handed, with the same CSS and field geometry either way."""
        n = data.draw(st.integers(1, 120))
        num_cols = data.draw(st.integers(1, 5))
        payload = data.draw(hnp.arrays(np.uint8, n))
        delims = np.array(sorted(data.draw(st.sets(
            st.integers(0, n - 1), max_size=12))), dtype=np.int64)
        seg_cols = data.draw(hnp.arrays(np.int64, delims.size + 1,
                                        elements=st.integers(
                                            0, num_cols - 1)))
        seg_recs = np.sort(data.draw(hnp.arrays(
            np.int64, delims.size + 1, elements=st.integers(0, 3))))
        keep = data.draw(hnp.arrays(np.bool_, n))
        wide = partition_field_runs(payload, keep, delims, seg_cols,
                                    seg_recs, num_cols)
        narrow = partition_field_runs(
            payload, keep, delims.astype(np.int32),
            seg_cols.astype(np.int32), seg_recs.astype(np.int32), num_cols)
        for name in ("field_records", "field_starts", "field_lengths",
                     "field_sources"):
            assert getattr(wide, name).dtype == np.int64, name
            assert getattr(narrow, name).dtype == np.int32, name
            assert getattr(narrow, name).tolist() \
                == getattr(wide, name).tolist(), name
        assert narrow.field_bounds.tolist() == wide.field_bounds.tolist()
        assert_same_partition(narrow, wide)

    def test_index_width_rule(self):
        limit = int(np.iinfo(np.int32).max)
        assert index_dtype(0) is np.int32
        # A virtual trailing delimiter at position ``size`` must fit too.
        assert index_dtype(limit - 1) is np.int32
        assert index_dtype(limit) is np.int64
        assert index_dtype(3 << 30) is np.int64

    def test_int64_tags_parse_identically(self, monkeypatch):
        """The past-2 GiB width, forced on a small input, runs validate,
        partition and convert to the same bytes."""
        data = generate_taxi_like(1 << 14, seed=1)
        options = ParseOptions(schema=TAXI_SCHEMA)
        expected = write_feather(ParPaRawParser(options).parse(data).table)
        monkeypatch.setattr(tagging, "index_dtype", lambda size: np.int64)
        emissions = np.frombuffer(b"\x00\x01\x00\x02", dtype=np.uint8)
        assert tagging.tag_global(emissions, 0).segment_records.dtype \
            == np.int64
        assert write_feather(ParPaRawParser(options).parse(data).table) \
            == expected

    def test_empty_input(self):
        part = field_runs(np.zeros(0, dtype=np.uint8),
                          np.zeros(0, dtype=bool), [], [], 3)
        assert part.css.size == 0
        assert part.order.size == 0
        assert part.column_offsets.tolist() == [0, 0, 0, 0]

    def test_single_column(self):
        data = np.frombuffer(b"abcdef", dtype=np.uint8)
        keep = np.array([True, False, True, True, True, False])
        part = field_runs(data, keep, np.zeros(6, dtype=np.int64),
                          np.array([0, 0, 1, 1, 2, 2]), 1)
        assert part.css.tobytes() == b"acde"
        assert part.order.tolist() == [0, 2, 3, 4]
        assert part.record_tags.tolist() == [0, 1, 1, 2]
        assert part.num_field_runs is not None

    def test_all_one_record(self):
        data = np.frombuffer(b"1,2,3", dtype=np.uint8)
        col = np.array([0, 0, 1, 1, 2])
        rec = np.zeros(5, dtype=np.int64)
        keep = np.array([True, False, True, False, True])
        a = partition_by_column(data, keep, col, rec, 3)
        b = field_runs(data, keep, col, rec, 3)
        assert b.css.tobytes() == b"123"
        assert a.order.tolist() == b.order.tolist()

    def test_rejects_negative_tags(self):
        with pytest.raises(ParseError):
            field_runs(np.zeros(2, dtype=np.uint8), np.ones(2, dtype=bool),
                       [-1, 0], [0, 0], 2)

    def test_rejects_overflowing_tags(self):
        with pytest.raises(ParseError):
            field_runs(np.zeros(2, dtype=np.uint8), np.ones(2, dtype=bool),
                       [0, 7], [0, 0], 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParseError):
            partition_field_runs(np.zeros(2, dtype=np.uint8),
                                 np.ones(3, dtype=bool),
                                 np.zeros(0, dtype=np.int64),
                                 np.zeros(1, dtype=np.int64),
                                 np.zeros(1, dtype=np.int64), 1)
        with pytest.raises(ParseError):
            partition_field_runs(np.zeros(2, dtype=np.uint8),
                                 np.ones(2, dtype=bool),
                                 np.array([0], dtype=np.int64),
                                 np.zeros(1, dtype=np.int64),
                                 np.zeros(1, dtype=np.int64), 1)

    def test_order_and_record_tags_derived_on_demand(self):
        data = np.frombuffer(b"ab,c\nd,ef\n", dtype=np.uint8)
        keep = data != ord(",")
        keep &= data != ord("\n")
        part = partition_field_runs(
            data, keep, np.array([2, 4, 6, 9], dtype=np.int64),
            np.array([0, 1, 0, 1, 0], dtype=np.int64),
            np.array([0, 0, 1, 1, 2], dtype=np.int64), 2)
        assert part._order is None and part._record_tags is None
        assert part.css.tobytes() == b"abdcef"
        assert part.order.tolist() == [0, 1, 5, 3, 7, 8]
        assert part.record_tags.tolist() == [0, 0, 1, 0, 1, 1]


class TestPartitionResultDefaults:
    def test_order_defaults_to_none(self):
        from repro.core.partition import PartitionResult
        part = PartitionResult(
            css=np.zeros(0, dtype=np.uint8),
            record_tags=np.zeros(0, dtype=np.int64),
            column_offsets=np.zeros(1, dtype=np.int64),
            num_columns=0)
        assert part.order is None
        assert part.num_field_runs is None
