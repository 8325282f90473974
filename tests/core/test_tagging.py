"""Tests for phase 2: emissions, bitmaps, record/column tags (§3.1-3.2).

The key invariant: the GLOBAL (vectorised cumulative sums) and CHUNKED
(paper-faithful per-chunk offsets + scans) implementations produce
bit-identical tags, and both match a scalar reference walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunking import chunk_groups
from repro.core.tagging import segment_lengths, tag_global
from repro.reference.core.context import determine_contexts
from repro.reference.core.tagging import compute_emissions, \
    sweep_chunk_ids, symbol_ids, tag_chunked
from repro.dfa.automaton import Emission
from repro.dfa.csv import dialect_dfa
from repro.dfa.dialects import Dialect

csv_like = st.text(
    alphabet=st.sampled_from(list('ab",\n')), max_size=100
).map(lambda s: s.encode())
# Mostly delimiters: more delimiters than symbols between them.
delimiter_dense = st.text(
    alphabet=st.sampled_from(list(',,,\n\na"#')), max_size=60
).map(lambda s: s.encode())
COMMENTS = Dialect(comment=b"#", strip_carriage_return=False)


def run_tagging(data: bytes, chunk_size: int = 7, dialect=None):
    dfa = dialect_dfa(dialect or Dialect(strip_carriage_return=False))
    arr = np.frombuffer(data, dtype=np.uint8)
    groups, chunking, padded = chunk_groups(arr, dfa, chunk_size)
    _, starts = determine_contexts(groups, padded)
    emissions, final, invalid = compute_emissions(groups, starts, padded,
                                                  chunking)
    return emissions, final, invalid, chunking, dfa


def reference_tags(dfa, data: bytes):
    """Scalar reference: record/column id per byte."""
    state = dfa.start_state
    record, column = 0, 0
    records, columns = [], []
    for byte in data:
        records.append(record)
        columns.append(column)
        state, emission = dfa.step(state, byte)
        if emission is Emission.RECORD_DELIMITER:
            record += 1
            column = 0
        elif emission is Emission.FIELD_DELIMITER:
            column += 1
    return records, columns


class TestEmissions:
    def test_emissions_match_sequential(self, csv_dfa):
        data = b'a,"b\nc",d\ne,f\n'
        emissions, final, invalid, _, dfa = run_tagging(data, 3)
        _, expected = dfa.simulate(data)
        assert emissions.tolist() == [int(e) for e in expected]
        assert invalid is None

    def test_final_state(self):
        emissions, final, _, _, dfa = run_tagging(b'a,"unclosed', 4)
        assert dfa.state_names[final] == "ENC"

    def test_invalid_position_detected(self):
        # 'a"' drives FLD -> INV at the quote; the automaton *sits* in INV
        # from the next byte on.
        _, _, invalid, _, _ = run_tagging(b'ab"cd,e\n', 3)
        assert invalid == 3

    def test_invalid_none_for_clean_input(self):
        _, _, invalid, _, _ = run_tagging(b"a,b\n", 2)
        assert invalid is None


class TestGlobalTags:
    @given(csv_like, st.integers(1, 13))
    @settings(max_examples=120)
    def test_matches_reference(self, data, chunk_size):
        emissions, final, _, chunking, dfa = run_tagging(data, chunk_size)
        records, columns = symbol_ids(tag_global(emissions, final))
        exp_records, exp_columns = reference_tags(dfa, data)
        assert records.tolist() == exp_records
        assert columns.tolist() == exp_columns

    def test_figure4_tags(self):
        """Bottom of Figure 4: column/record tags of the worked example."""
        data = b'1941,199.99,"Bookcase"\n1938,19.99,"Frame\n' \
               b'""Ribba"", black"\n'
        emissions, final, _, chunking, dfa = run_tagging(data, 10)
        tags = tag_global(emissions, final)
        records, columns = symbol_ids(tags)
        # First record: '1941' col 0, '199.99' col 1, 'Bookcase' col 2.
        assert columns[:4].tolist() == [0] * 4
        assert columns[5:11].tolist() == [1] * 6
        assert records[:23].tolist() == [0] * 23
        assert records[23:30].tolist() == [1] * 7
        assert tags.num_records == 2

    def test_record_count_with_trailing(self):
        emissions, final, _, _, _ = run_tagging(b"a\nb", 2)
        tags = tag_global(emissions, final)
        assert tags.num_records == 2
        assert tags.has_trailing_record

    def test_no_trailing_after_clean_end(self):
        emissions, final, _, _, _ = run_tagging(b"a\nb\n", 2)
        tags = tag_global(emissions, final)
        assert tags.num_records == 2
        assert not tags.has_trailing_record

    def test_lone_quotes_are_a_record(self):
        # '""' is one record with one empty field (CONTROL content).
        emissions, final, _, _, _ = run_tagging(b'""', 1)
        tags = tag_global(emissions, final)
        assert tags.num_records == 1

    def test_comment_only_input_no_records(self):
        data = b"#just a comment"
        dfa_dialect = Dialect(comment=b"#", strip_carriage_return=False)
        emissions, final, _, chunking, dfa = run_tagging(data, 4,
                                                         dfa_dialect)
        tags = tag_global(emissions, final)
        assert tags.num_records == 0

    def test_empty_input(self):
        emissions, final, _, _, _ = run_tagging(b"", 4)
        tags = tag_global(emissions, final)
        assert tags.num_records == 0
        assert symbol_ids(tags)[0].size == 0


class TestChunkedEqualsGlobal:
    @given(csv_like, st.integers(1, 13))
    @settings(max_examples=120)
    def test_identical_tags(self, data, chunk_size):
        emissions, final, _, chunking, _ = run_tagging(data, chunk_size)
        a = tag_global(emissions, final)
        b = tag_chunked(emissions, final, chunking)
        for ids_a, ids_b in zip(symbol_ids(a), symbol_ids(b)):
            assert ids_a.tolist() == ids_b.tolist()
        assert a.num_records == b.num_records
        assert a.has_trailing_record == b.has_trailing_record
        assert np.array_equal(a.delim_positions, b.delim_positions)
        assert np.array_equal(a.segment_records, b.segment_records)
        assert np.array_equal(a.segment_columns, b.segment_columns)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 10, 31, 64, 1000])
    def test_paper_example_all_chunk_sizes(self, chunk_size, paper_example):
        emissions, final, _, chunking, _ = run_tagging(paper_example,
                                                       chunk_size)
        a = tag_global(emissions, final)
        b = tag_chunked(emissions, final, chunking)
        for ids_a, ids_b in zip(symbol_ids(a), symbol_ids(b)):
            assert ids_a.tolist() == ids_b.tolist()


class TestSegmentTags:
    """Segment tags expanded per symbol are the paper's per-chunk sweep
    ids (DESIGN.md §5), for both taggers and every chunk size."""

    @staticmethod
    def assert_segments_match_sweep(data: bytes, chunk_size: int,
                                    dialect=None):
        emissions, final, _, chunking, _ = run_tagging(data, chunk_size,
                                                       dialect)
        record_ids, column_ids = sweep_chunk_ids(emissions, chunking)
        for tags in (tag_global(emissions, final),
                     tag_chunked(emissions, final, chunking)):
            lengths = segment_lengths(tags.delim_positions, len(data))
            assert lengths.sum() == len(data)
            assert np.repeat(tags.segment_records, lengths).tolist() \
                == record_ids[:-1].tolist()
            assert np.repeat(tags.segment_columns, lengths).tolist() \
                == column_ids[:-1].tolist()
            # The last segment (possibly empty) holds the counters after
            # the final symbol.
            assert tags.segment_records[-1] == record_ids[-1]
            assert tags.segment_columns[-1] == column_ids[-1]

    @given(st.one_of(csv_like, delimiter_dense), st.integers(1, 13),
           st.booleans())
    @settings(max_examples=150)
    def test_expanded_segments_equal_chunked_ids(self, data, chunk_size,
                                                 comments):
        self.assert_segments_match_sweep(
            data, chunk_size, COMMENTS if comments else None)

    @pytest.mark.parametrize("data", [
        b"",
        b",,,\n\n,\n,,",
        b"a,b\nc,d",
        b"a,b\n#trailing comment",
        b"a\n#c\n#d\n",
    ], ids=["empty", "delimiter-dense", "unterminated", "trailing-comment",
            "comment-lines"])
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
    def test_edge_inputs(self, data, chunk_size):
        self.assert_segments_match_sweep(data, chunk_size, COMMENTS)

    def test_trailing_comment_is_no_record(self):
        emissions, final, _, _, _ = run_tagging(b"a,b\n#c", 3, COMMENTS)
        tags = tag_global(emissions, final)
        assert tags.num_records == 1
        assert tags.segment_records.tolist() == [0, 0, 1]
        assert tags.record_at(5) == 1
