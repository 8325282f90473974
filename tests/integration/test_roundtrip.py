"""Write -> parse round-trip properties.

The strongest end-to-end invariant available without external data: any
table the columnar layer can represent, rendered by the writer, must parse
back (with the matching schema) into an equal table — under every dialect
and chunk size.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DataType,
    Dialect,
    Field,
    ParPaRawParser,
    ParseOptions,
    Schema,
)
from repro.columnar.table import Column, Table
from repro.workloads.writer import render_value, write_rows, write_table
from repro.errors import DialectError


def make_table(schema: Schema, columns_values) -> Table:
    return Table(schema, [Column.from_values(f, v)
                          for f, v in zip(schema, columns_values)])


TEXT = st.one_of(
    st.none(),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=1, max_size=20),
    st.sampled_from(['a,b', 'x\ny', 'he said "hi"', ',', '\n', '"',
                     '""', 'tricky,"\n"']),
)

INTS = st.one_of(st.none(), st.integers(-(2 ** 62), 2 ** 62))
FLOATS = st.one_of(st.none(),
                   st.floats(allow_nan=False, allow_infinity=False))
BOOLS = st.one_of(st.none(), st.booleans())
# The textual forms are YYYY-MM-DD (years 0000-9999), so the renderable
# domain is bounded; days_from_civil(0,1,1) = -719528.
MIN_DAYS, MAX_DAYS = -719_528, 2_932_896
DATES = st.one_of(st.none(), st.integers(MIN_DAYS, MAX_DAYS))
TIMESTAMPS = st.one_of(st.none(),
                       st.integers(MIN_DAYS * 86_400,
                                   MAX_DAYS * 86_400 + 86_399))
DECIMALS = st.one_of(st.none(), st.integers(-(10 ** 15), 10 ** 15))


class TestTypedRoundTrip:
    SCHEMA = Schema([
        Field("s", DataType.STRING),
        Field("i", DataType.INT64),
        Field("f", DataType.FLOAT64),
        Field("b", DataType.BOOL),
        Field("d", DataType.DATE),
        Field("t", DataType.TIMESTAMP),
        Field("m", DataType.DECIMAL, decimal_scale=2),
    ])

    @given(st.lists(
        st.tuples(TEXT, INTS, FLOATS, BOOLS, DATES, TIMESTAMPS, DECIMALS),
        max_size=25))
    @settings(max_examples=120, deadline=None)
    def test_write_parse_equals_original(self, rows):
        # Rows whose string field is empty cannot round trip exactly
        # (empty renders like NULL); map '' to None up front.
        rows = [tuple(None if v == "" else v for v in row)
                for row in rows]
        columns = list(zip(*rows)) if rows else [[]] * len(self.SCHEMA)
        table = make_table(self.SCHEMA, [list(c) for c in columns])
        raw = write_table(table)
        parsed = ParPaRawParser(
            ParseOptions(schema=self.SCHEMA)).parse(raw)
        assert parsed.table.to_pylist() == table.to_pylist()
        assert parsed.total_rejected_fields == 0

    @pytest.mark.parametrize("chunk_size", [1, 5, 31])
    def test_fixed_rows_all_chunk_sizes(self, chunk_size):
        table = make_table(self.SCHEMA, [
            ["a,b", None, 'quo"te'],
            [1, -2, None],
            [1.5, None, -0.25],
            [True, False, None],
            [0, -719468, 11017],
            [0, 86399, None],
            [19999, None, -50],
        ])
        raw = write_table(table)
        parsed = ParPaRawParser(ParseOptions(schema=self.SCHEMA,
                                             chunk_size=chunk_size)) \
            .parse(raw)
        assert parsed.table.to_pylist() == table.to_pylist()


class TestRawRowsRoundTrip:
    @given(st.lists(st.lists(st.one_of(
        st.none(), st.binary(min_size=1, max_size=12)
        .filter(lambda b: all(c < 0x80 for c in b))),
        min_size=1, max_size=5), max_size=20),
        st.integers(1, 23))
    @settings(max_examples=100, deadline=None)
    def test_bytes_roundtrip(self, rows, chunk_size):
        from repro.baselines import SequentialParser
        raw = write_rows(rows, Dialect.csv())
        parser = SequentialParser(ParseOptions())
        assert parser.parse_rows(raw) == [list(r) for r in rows]
        # And the parallel parser agrees, of course.
        width = max((len(r) for r in rows), default=0)
        parsed = ParPaRawParser(ParseOptions(
            schema=Schema.all_strings(width),
            chunk_size=chunk_size)).parse(raw)
        expected = [[None if f is None else f.decode() for f in r]
                    + [None] * (width - len(r)) for r in rows]
        assert [list(row) for row in parsed.table.rows()] == expected

    def test_header(self):
        schema = Schema([Field("alpha", DataType.STRING),
                         Field("beta", DataType.INT64)])
        table = make_table(schema, [["x"], [1]])
        raw = write_table(table, header=True)
        assert raw.startswith(b"alpha,beta\n")

    def test_comment_byte_gets_quoted(self):
        dialect = Dialect.csv_with_comments()
        raw = write_rows([[b"#not a comment", b"v"]], dialect)
        parsed = ParPaRawParser(ParseOptions(dialect=dialect)).parse(raw)
        assert parsed.table.row(0) == ("#not a comment", "v")

    def test_unquotable_dialect_raises(self):
        with pytest.raises(DialectError):
            write_rows([[b"a\tb"]], Dialect.tsv())
        with pytest.raises(DialectError):
            write_rows([[b'quote " inside']],
                       Dialect(doubled_quote=False))


class TestRenderValue:
    def test_decimal(self):
        assert render_value(19999, DataType.DECIMAL, 2) == b"199.99"
        assert render_value(-5, DataType.DECIMAL, 2) == b"-0.05"
        assert render_value(7, DataType.DECIMAL, 0) == b"7"

    def test_date_inverse(self):
        from repro.core.scalar_convert import parse_date_scalar
        for days in (-1000, 0, 1, 11017, 200_000):
            text = render_value(days, DataType.DATE)
            assert parse_date_scalar(text) == (days, True)

    @given(st.integers(-719_528 * 86_400, 2_932_896 * 86_400 + 86_399))
    def test_timestamp_inverse(self, seconds):
        from repro.core.scalar_convert import parse_timestamp_scalar
        text = render_value(seconds, DataType.TIMESTAMP)
        assert parse_timestamp_scalar(text) == (seconds, True)

    def test_bool(self):
        assert render_value(True, DataType.BOOL) == b"true"
        assert render_value(None, DataType.BOOL) is None
