"""Feather-style framed writer: round-trips, edge tables, guards.

Covers the serialisation surface: ``write_feather`` / ``read_feather``
round-trips (including the fig13 workload tables and zero-copy sliced
inputs), degenerate table shapes, foreign-endianness buffers,
length-field overflow guards and malformed-stream rejection.
"""

import json
import struct

import numpy as np
import pytest

from repro import Dialect, ParseOptions, parse_bytes
from repro.columnar import (
    Column,
    DataType,
    Field,
    Schema,
    Table,
    read_feather,
    write_feather,
)
from repro.columnar import serialize as serialize_mod
from repro.errors import ColumnarError
from repro.workloads import generate_taxi_like, generate_yelp_like

NO_CR = Dialect(strip_carriage_return=False)


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


def assert_roundtrip(table: Table) -> Table:
    rebuilt = read_feather(write_feather(table))
    assert rebuilt.schema == table.schema
    assert rebuilt.to_pylist() == table.to_pylist()
    return rebuilt


class TestFeatherRoundTrip:
    def test_sample(self):
        assert_roundtrip(sample_table())

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.feather"
        stream = write_feather(sample_table(), path)
        assert path.read_bytes() == stream
        assert read_feather(path) == read_feather(stream)

    @pytest.mark.parametrize("generate,seed", [
        (generate_yelp_like, 7), (generate_taxi_like, 11),
    ], ids=["yelp", "taxi"])
    def test_fig13_workload_tables(self, generate, seed):
        data = generate(64 * 1024, seed=seed)
        table = parse_bytes(data, ParseOptions(dialect=NO_CR)).table
        assert table.num_rows > 0
        assert_roundtrip(table)

    def test_sliced_table_roundtrip(self):
        """Zero-copy slices (non-zero offset base) canonicalise on write."""
        table = sample_table().slice(1, 3)
        rebuilt = assert_roundtrip(table)
        offsets = rebuilt.column("name").offsets
        assert int(offsets[0]) == 0

    def test_buffers_are_eight_byte_aligned(self):
        stream = write_feather(sample_table())
        header_len, = struct.unpack_from("<I", stream, 6)
        header = json.loads(stream[10:10 + header_len].decode("utf-8"))
        specs = [b for c in header["columns"] for b in c["buffers"]]
        assert specs
        for spec in specs:
            assert spec["offset"] % 8 == 0
            # dtype strings carry explicit endianness for multi-byte types.
            assert np.dtype(spec["dtype"]).byteorder in ("<", ">", "|", "=")


class TestEdgeTables:
    def test_zero_rows(self):
        schema = Schema([Field("s", DataType.STRING),
                         Field("i", DataType.INT32)])
        table = Table(schema, [Column.from_values(schema[0], []),
                               Column.from_values(schema[1], [])])
        rebuilt = assert_roundtrip(table)
        assert rebuilt.num_rows == 0

    def test_zero_columns(self):
        table = Table(Schema([]), [])
        rebuilt = assert_roundtrip(table)
        assert rebuilt.num_columns == 0
        assert rebuilt.num_rows == 0

    def test_all_null_columns(self):
        schema = Schema([Field("s", DataType.STRING),
                         Field("f", DataType.FLOAT64)])
        table = Table(schema, [
            Column.from_values(schema[0], [None, None, None]),
            Column.from_values(schema[1], [None, None, None]),
        ])
        rebuilt = assert_roundtrip(table)
        assert rebuilt.column("s").null_count == 3
        assert rebuilt.column("f").null_count == 3

    def test_empty_string_only_column(self):
        schema = Schema([Field("s", DataType.STRING)])
        table = Table(schema, [Column.from_values(schema[0], ["", "", ""])])
        rebuilt = assert_roundtrip(table)
        assert rebuilt.to_pylist() == [{"s": ""}] * 3

    def test_non_native_endian_buffers(self):
        """A header declaring ``>i8`` values is byteswapped on read."""
        schema = Schema([Field("x", DataType.INT64)])
        table = Table(schema, [Column.from_values(schema[0], [1, -2, 3])])
        stream = write_feather(table)
        header_len, = struct.unpack_from("<I", stream, 6)
        header_raw = stream[10:10 + header_len]
        header = json.loads(header_raw.decode("utf-8"))
        spec = next(b for b in header["columns"][0]["buffers"]
                    if b["kind"] == "values")
        assert np.dtype(spec["dtype"]) == np.dtype("<i8")
        # Byteswap the values buffer in place and flip the declared
        # order; "<i8" and ">i8" have equal length so offsets hold.
        lo, n = spec["offset"], spec["length"]
        swapped = np.frombuffer(stream, "<i8", count=n // 8,
                                offset=lo).byteswap().tobytes()
        foreign = (stream[:10]
                   + header_raw.replace(b'"<i8"', b'">i8"')
                   + stream[10 + header_len:lo] + swapped
                   + stream[lo + n:])
        assert foreign != stream
        rebuilt = read_feather(foreign)
        assert rebuilt.to_pylist() == table.to_pylist()


class TestGuards:
    def test_serialize_u32_overflow(self, monkeypatch):
        """The u32 guard admits its maximum and rejects one past it."""
        monkeypatch.setattr(serialize_mod, "_U32_MAX", 8)
        assert serialize_mod._checked_u32(8, "x") == struct.pack("<I", 8)
        with pytest.raises(ColumnarError, match="u32 length field"):
            serialize_mod._checked_u32(9, "x")

    def test_serialize_u64_overflow(self, monkeypatch):
        """The u64 guard admits its maximum and rejects one past it."""
        monkeypatch.setattr(serialize_mod, "_U64_MAX", 4)
        assert serialize_mod._checked_u64(4, "x") == 4
        with pytest.raises(ColumnarError, match="u64 length field"):
            serialize_mod._checked_u64(5, "x")

    def test_feather_header_overflow(self, monkeypatch):
        monkeypatch.setattr(serialize_mod, "_U32_MAX", 8)
        with pytest.raises(ColumnarError, match="u32 length field"):
            write_feather(sample_table())

    def test_feather_buffer_overflow(self, monkeypatch):
        monkeypatch.setattr(serialize_mod, "_U64_MAX", 4)
        with pytest.raises(ColumnarError, match="u64 length field"):
            write_feather(sample_table())

    def test_feather_bad_magic(self):
        for stream in (b"NOPE" + b"\x00" * 16, b""):
            with pytest.raises(ColumnarError, match="bad magic"):
                read_feather(stream)

    def test_feather_bad_version(self):
        stream = bytearray(write_feather(sample_table()))
        struct.pack_into("<H", stream, 4, 99)
        with pytest.raises(ColumnarError, match="version"):
            read_feather(bytes(stream))

    def test_feather_truncated(self):
        stream = write_feather(sample_table())
        for cut in (len(stream) - 3, 8):
            with pytest.raises(ColumnarError):
                read_feather(stream[:cut])

    def test_feather_trailing_bytes(self):
        stream = write_feather(sample_table())
        for extra in (b"\x00" * 8, b"\x00"):
            with pytest.raises(ColumnarError, match="trailing or missing"):
                read_feather(stream + extra)
