"""Unit tests for validation, selection helpers and options."""

import numpy as np
import pytest

from repro.core.options import ColumnCountPolicy, ParseOptions
from repro.core.selection import prune_rows, row_mapping, \
    selected_column_mask
from repro.core.validation import apply_column_policy
from repro.errors import ParseError, SchemaError


class TestPruneRows:
    def test_removes_lines(self):
        data = np.frombuffer(b"l0\nl1\nl2\n", dtype=np.uint8)
        out = prune_rows(data, {1}, ord("\n"))
        assert out.tobytes() == b"l0\nl2\n"

    def test_removes_unterminated_tail(self):
        data = np.frombuffer(b"l0\ntail", dtype=np.uint8)
        out = prune_rows(data, {1}, ord("\n"))
        assert out.tobytes() == b"l0\n"

    def test_no_skips_is_identity(self):
        data = np.frombuffer(b"a\nb\n", dtype=np.uint8)
        assert prune_rows(data, set(), ord("\n")) is data

    def test_out_of_range_rows_ignored(self):
        data = np.frombuffer(b"a\n", dtype=np.uint8)
        assert prune_rows(data, {7}, ord("\n")).tobytes() == b"a\n"

    def test_negative_row_rejected(self):
        data = np.frombuffer(b"a\n", dtype=np.uint8)
        with pytest.raises(ParseError):
            prune_rows(data, {-1}, ord("\n"))


class TestRowMapping:
    def test_mapping(self):
        rows, n = row_mapping(np.array([True, False, True, True]))
        assert rows.tolist() == [0, -1, 1, 2]
        assert n == 3

    def test_empty(self):
        rows, n = row_mapping(np.array([], dtype=bool))
        assert rows.size == 0 and n == 0


class TestSelectedColumnMask:
    def test_all_when_none(self):
        assert selected_column_mask(3, None).tolist() == [True] * 3

    def test_subset(self):
        assert selected_column_mask(4, (0, 2)).tolist() \
            == [True, False, True, False]

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            selected_column_mask(2, (3,))


class TestParseOptionsValidation:
    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ParseError):
            ParseOptions(chunk_size=0)

    def test_rejects_bad_terminator(self):
        with pytest.raises(ParseError):
            ParseOptions(inline_terminator=300)

    def test_rejects_duplicate_selection(self):
        with pytest.raises(SchemaError):
            ParseOptions(select_columns=(1, 1))

    def test_rejects_negative_selection(self):
        with pytest.raises(SchemaError):
            ParseOptions(select_columns=(-1,))

    def test_with_copies(self):
        base = ParseOptions()
        derived = base.with_(chunk_size=7)
        assert derived.chunk_size == 7
        assert base.chunk_size == 31

    def test_dfa_cached(self):
        options = ParseOptions()
        assert options.resolved_dfa() is options.resolved_dfa()


class TestApplyColumnPolicy:
    class FakeReport:
        def __init__(self, counts):
            self.field_counts = np.array(counts, dtype=np.int64)

    def test_lenient(self):
        mask = apply_column_policy(self.FakeReport([1, 2, 3]), 2,
                                   ColumnCountPolicy.LENIENT, False)
        assert mask.tolist() == [True] * 3

    def test_reject(self):
        mask = apply_column_policy(self.FakeReport([1, 2, 3]), 2,
                                   ColumnCountPolicy.REJECT, False)
        assert mask.tolist() == [False, True, False]

    def test_strict(self):
        with pytest.raises(ParseError):
            apply_column_policy(self.FakeReport([2, 1]), 2,
                                ColumnCountPolicy.STRICT, True)
