"""Tests for symbol-group compression of transition tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dfa.compression import group_symbols
from repro.dfa.csv import dialect_dfa
from repro.dfa.dialects import Dialect
from repro.errors import DfaError
from repro.reference.dfa.compression import expand_table, is_minimal


class TestGroupSymbols:
    def test_csv_collapses_to_four_groups(self, csv_dfa):
        full = expand_table(csv_dfa)
        compressed = group_symbols(full)
        assert compressed.num_groups == 4

    def test_roundtrip(self, csv_dfa):
        full = expand_table(csv_dfa)
        compressed = group_symbols(full)
        rebuilt = compressed.transitions[compressed.symbol_groups]
        assert np.array_equal(rebuilt, full)

    def test_rejects_bad_shape(self):
        with pytest.raises(DfaError):
            group_symbols(np.zeros((10, 3), dtype=np.uint8))

    @given(st.integers(min_value=1, max_value=6))
    def test_constant_table_one_group(self, num_states):
        full = np.ones((256, num_states), dtype=np.uint8) % num_states
        compressed = group_symbols(full)
        assert compressed.num_groups == 1

    def test_group_numbering_deterministic(self):
        full = np.zeros((256, 2), dtype=np.uint8)
        full[ord("a")] = [1, 0]
        full[ord("z")] = [1, 0]
        compressed = group_symbols(full)
        # Byte 0's row appears first -> group 0; 'a' and 'z' share group 1.
        assert compressed.symbol_groups[0] == 0
        assert compressed.symbol_groups[ord("a")] == 1
        assert compressed.symbol_groups[ord("z")] == 1


class TestIsMinimal:
    def test_paper_dfas_minimal(self, csv_dfa, comment_dfa):
        assert is_minimal(csv_dfa)
        assert is_minimal(comment_dfa)

    def test_log_dfas_minimal(self):
        from repro.dfa.logformats import common_log_format_dfa, \
            extended_log_format_dfa
        assert is_minimal(common_log_format_dfa())
        assert is_minimal(extended_log_format_dfa())

    def test_all_dialects_minimal(self):
        for dialect in (Dialect.csv(), Dialect.tsv(), Dialect.pipe(),
                        Dialect.csv_with_comments(),
                        Dialect(escape=b"\\")):
            assert is_minimal(dialect_dfa(dialect)), dialect
