"""Round-trip and malformed-stream tests for table serialisation.

``repro.columnar.serialize`` has one framing, ``write_feather`` /
``read_feather``; these tests pin its basic contract on small tables.
"""

import pytest
from hypothesis import given, strategies as st

from repro.columnar.schema import DataType, Field, Schema
from repro.columnar.serialize import read_feather, write_feather
from repro.columnar.table import Column, Table
from repro.errors import SchemaError


def sample_table() -> Table:
    schema = Schema([
        Field("id", DataType.INT64),
        Field("price", DataType.DECIMAL, decimal_scale=2),
        Field("flag", DataType.BOOL),
        Field("name", DataType.STRING),
    ])
    return Table(schema, [
        Column.from_values(schema[0], [1, None, 3]),
        Column.from_values(schema[1], [100, 250, None]),
        Column.from_values(schema[2], [True, False, True]),
        Column.from_values(schema[3], ["a", "", None]),
    ])


class TestRoundTrip:
    def test_sample(self):
        table = sample_table()
        rebuilt = read_feather(write_feather(table))
        assert rebuilt.schema == table.schema
        assert rebuilt.to_pylist() == table.to_pylist()

    def test_empty_table(self):
        schema = Schema([Field("x", DataType.INT32)])
        table = Table(schema, [Column.from_values(schema[0], [])])
        rebuilt = read_feather(write_feather(table))
        assert rebuilt.schema == table.schema
        assert rebuilt.num_rows == 0

    def test_parse_result_roundtrip(self):
        from repro import parse_bytes
        table = parse_bytes(b'a,1\n"x,y",2\n').table
        rebuilt = read_feather(write_feather(table))
        assert rebuilt.to_pylist() == table.to_pylist()

    @given(st.lists(st.one_of(st.none(),
                              st.text(max_size=10)), max_size=30),
           st.lists(st.one_of(st.none(),
                              st.integers(-(2 ** 31), 2 ** 31 - 1)),
                    max_size=30))
    def test_property_roundtrip(self, strings, ints):
        n = min(len(strings), len(ints))
        schema = Schema([Field("s", DataType.STRING),
                         Field("i", DataType.INT64)])
        table = Table(schema, [
            Column.from_values(schema[0], strings[:n]),
            Column.from_values(schema[1], ints[:n]),
        ])
        rebuilt = read_feather(write_feather(table))
        assert rebuilt.to_pylist() == table.to_pylist()


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(SchemaError, match="bad magic"):
            read_feather(b"NOPE!" + b"\x00" * 20)

    def test_truncated(self):
        raw = write_feather(sample_table())
        with pytest.raises(SchemaError):
            read_feather(raw[:len(raw) // 2])

    def test_trailing_garbage(self):
        raw = write_feather(sample_table())
        with pytest.raises(SchemaError, match="trailing or missing"):
            read_feather(raw + b"x")
