"""Tests for NULL-literal handling (paper §3.3, "identifying NULLs")."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DataType,
    Field,
    ParPaRawParser,
    ParseOptions,
    Schema,
    parse_bytes,
)
from repro.baselines import SequentialParser

SCHEMA = Schema([Field("n", DataType.INT64),
                 Field("s", DataType.STRING)])
OPTIONS = ParseOptions(schema=SCHEMA, null_literals=("NA", "null", "-"))


class TestNullLiterals:
    def test_literals_become_null(self):
        result = parse_bytes(b"1,x\nNA,null\n-,y\n", OPTIONS)
        assert result.table.to_pylist() == [
            {"n": 1, "s": "x"},
            {"n": None, "s": None},
            {"n": None, "s": "y"},
        ]

    def test_not_counted_as_rejects(self):
        result = parse_bytes(b"NA\nbad\n",
                             ParseOptions(schema=Schema([
                                 Field("n", DataType.INT64)]),
                                 null_literals=("NA",)))
        assert result.table.column("n").to_list() == [None, None]
        assert result.total_rejected_fields == 1  # only 'bad'

    def test_overrides_default(self):
        schema = Schema([Field("n", DataType.INT64, default=7)])
        options = ParseOptions(schema=schema, null_literals=("NA",))
        result = parse_bytes(b"NA\n\n1\n", options)
        # Literal NULL beats the default; the *empty* field takes it.
        assert result.table.column("n").to_list() == [None, 7, 1]

    def test_exact_match_only(self):
        result = parse_bytes(b"NAT,NAx\n", ParseOptions(
            schema=Schema.all_strings(2), null_literals=("NA",)))
        assert result.table.row(0) == ("NAT", "NAx")

    def test_string_column_nulls(self):
        result = parse_bytes(b"null,ok\n", ParseOptions(
            schema=Schema.all_strings(2), null_literals=("null",)))
        assert result.table.row(0) == (None, "ok")

    def test_disabled_by_default(self):
        result = parse_bytes(b"NA\n", schema=Schema.all_strings(1))
        assert result.table.row(0) == ("NA",)

    def test_scalar_path_agrees(self):
        data = b"1,NA\nnull,-\n2,z\n"
        vector = parse_bytes(data, OPTIONS).table.to_pylist()
        scalar = SequentialParser(OPTIONS).parse(data).to_pylist()
        assert vector == scalar

    @given(st.lists(st.sampled_from(
        [b"1", b"NA", b"null", b"-", b"xyz", b"7"]), min_size=1,
        max_size=30), st.integers(1, 17))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_with_sequential(self, fields, chunk_size):
        data = b"\n".join(fields) + b"\n"
        options = ParseOptions(
            schema=Schema([Field("v", DataType.STRING)]),
            null_literals=("NA", "null", "-"),
            chunk_size=chunk_size)
        parallel = ParPaRawParser(options).parse(data).table.to_pylist()
        sequential = SequentialParser(options).parse(data).to_pylist()
        assert parallel == sequential
