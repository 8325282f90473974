"""Tests for §4.2: symbol-level chunk-parallel parsing of UTF-8/UTF-16."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.reference.core.symbol_parser import SymbolDfa, parse_symbols, \
    symbol_transition_vectors
from repro.dfa.csv import dialect_dfa
from repro.dfa.dialects import Dialect
from repro.reference.dfa.transitions import compose, identity_vector

NO_CR = Dialect(strip_carriage_return=False)


def sequential_symbol_rows(sdfa: SymbolDfa,
                           text: str) -> tuple[list[list[str | None]], int]:
    """Scalar reference: simulate the DFA over the decoded code points."""
    from repro.dfa.automaton import Emission
    dfa = sdfa.dfa
    state = dfa.start_state
    records: list[list[str | None]] = []
    fields: list[str | None] = []
    buffer: list[str] = []
    has_content = False
    has_data = False
    for char in text:
        group = sdfa.group_of(ord(char))
        emission = Emission(int(dfa.emissions[state, group]))
        state = int(dfa.transitions[group, state])
        if emission is Emission.DATA:
            buffer.append(char)
            has_data = has_content = True
        elif emission is Emission.FIELD_DELIMITER:
            fields.append("".join(buffer) if has_data else None)
            buffer.clear()
            has_data = False
            has_content = True
        elif emission is Emission.RECORD_DELIMITER:
            fields.append("".join(buffer) if has_data else None)
            buffer.clear()
            has_data = False
            records.append(fields)
            fields = []
            has_content = False
        elif emission is Emission.CONTROL:
            has_content = True
    if has_content:
        fields.append("".join(buffer) if has_data else None)
        records.append(fields)
    return records, state


UNICODE_CSV = st.text(
    alphabet=st.sampled_from(list('aé日🙂",\n')), max_size=60)


@pytest.fixture(scope="module")
def csv_symbol_dfa() -> SymbolDfa:
    return SymbolDfa(dialect_dfa(NO_CR))


class TestStvComposition:
    @given(UNICODE_CSV, st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_utf8_stv_composes_to_sequential(self, text, chunk_size,
                                             ):
        sdfa = SymbolDfa(dialect_dfa(NO_CR))
        data = text.encode("utf-8")
        vectors = symbol_transition_vectors(sdfa, data, chunk_size)
        prefix = identity_vector(sdfa.dfa.num_states)
        for vector in vectors:
            prefix = compose(prefix, vector)
        _, expected_state = sequential_symbol_rows(sdfa, text)
        assert prefix[sdfa.dfa.start_state] == expected_state

    @given(UNICODE_CSV, st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_utf16_stv_composes_to_sequential(self, text, units):
        sdfa = SymbolDfa(dialect_dfa(NO_CR))
        data = text.encode("utf-16-le")
        vectors = symbol_transition_vectors(sdfa, data, units * 2,
                                            encoding="utf-16-le")
        prefix = identity_vector(sdfa.dfa.num_states)
        for vector in vectors:
            prefix = compose(prefix, vector)
        _, expected_state = sequential_symbol_rows(sdfa, text)
        assert prefix[sdfa.dfa.start_state] == expected_state


class TestParseSymbols:
    @given(UNICODE_CSV, st.integers(1, 16))
    @settings(max_examples=120, deadline=None)
    def test_utf8_matches_sequential(self, text, chunk_size,
                                     ):
        sdfa = SymbolDfa(dialect_dfa(NO_CR))
        rows, state = parse_symbols(sdfa, text.encode("utf-8"), chunk_size)
        expected_rows, expected_state = sequential_symbol_rows(sdfa, text)
        assert rows == expected_rows
        assert state == expected_state

    @given(UNICODE_CSV, st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_utf16_matches_sequential(self, text, units):
        sdfa = SymbolDfa(dialect_dfa(NO_CR))
        rows, state = parse_symbols(sdfa, text.encode("utf-16-le"),
                                    units * 2, encoding="utf-16-le")
        expected_rows, expected_state = sequential_symbol_rows(sdfa, text)
        assert rows == expected_rows
        assert state == expected_state

    def test_multibyte_quoted_field(self, csv_symbol_dfa):
        text = 'id,"日本語, with 🙂 emoji\nand a newline"\n'
        rows, _ = parse_symbols(csv_symbol_dfa, text.encode("utf-8"), 5)
        assert rows == [["id", "日本語, with 🙂 emoji\nand a newline"]]

    def test_surrogate_pair_spanning_chunks(self, csv_symbol_dfa):
        # A 4-byte UTF-16 code point straddling every possible 2-byte
        # chunk boundary must never split.
        text = 'a,🙂\n'
        data = text.encode("utf-16-le")
        for units in (1, 2, 3):
            rows, _ = parse_symbols(csv_symbol_dfa, data, units * 2,
                                    encoding="utf-16-le")
            assert rows == [["a", "🙂"]], units

    def test_empty_input(self, csv_symbol_dfa):
        rows, state = parse_symbols(csv_symbol_dfa, b"", 4)
        assert rows == []
        assert state == csv_symbol_dfa.dfa.start_state

    def test_custom_classifier(self):
        # Treat the em dash (U+2014) as the field delimiter.
        dfa = dialect_dfa(NO_CR)
        delim_group = dfa.group_of(ord(","))
        other_group = dfa.group_of(ord("x"))
        eol_group = dfa.group_of(ord("\n"))

        def classify(cp: int) -> int:
            if cp == 0x2014:
                return delim_group
            if cp == ord("\n"):
                return eol_group
            if cp < 128:
                return int(dfa.symbol_groups[cp])
            return other_group

        sdfa = SymbolDfa(dfa, classify)
        rows, _ = parse_symbols(sdfa, "a—b\n".encode("utf-8"), 3)
        assert rows == [["a", "b"]]

    def test_matches_byte_pipeline_on_utf8(self):
        """For UTF-8 (ASCII-compatible), symbol-level parsing must agree
        with the byte-level pipeline — §4.2's compatibility claim."""
        from repro import ParPaRawParser, ParseOptions, Schema
        text = 'é,"日本\n🙂",x\nплюс,b,c\n'
        data = text.encode("utf-8")
        sdfa = SymbolDfa(dialect_dfa(NO_CR))
        rows, _ = parse_symbols(sdfa, data, 7)
        parsed = ParPaRawParser(ParseOptions(
            dialect=NO_CR, schema=Schema.all_strings(3))).parse(data)
        assert [list(r) for r in parsed.table.rows()] == rows
