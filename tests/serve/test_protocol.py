"""The serve wire format: framing limits and the options codec."""

import io

import pytest

from repro.core.options import ColumnCountPolicy, ParseOptions, \
    TaggingMode
from repro.columnar.schema import DataType, Field, Schema
from repro.dfa import Dialect, rfc4180_dfa
from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (
    MAGIC,
    MAX_HEADER_BYTES,
    options_from_wire,
    options_to_wire,
    read_frame,
    write_frame,
)


def roundtrip(header, body=b"", max_body=None):
    buffer = io.BytesIO()
    write_frame(buffer, header, body)
    buffer.seek(0)
    if max_body is None:
        return read_frame(buffer)
    return read_frame(buffer, max_body=max_body)


class TestFraming:
    def test_roundtrip(self):
        header, body = roundtrip({"op": "parse", "tenant": "t"}, b"a,b\n")
        assert header == {"op": "parse", "tenant": "t"}
        assert body == b"a,b\n"

    def test_empty_body(self):
        header, body = roundtrip({"op": "ping"})
        assert header["op"] == "ping"
        assert body == b""

    def test_back_to_back_frames(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"n": 1}, b"one")
        write_frame(buffer, {"n": 2}, b"two")
        buffer.seek(0)
        assert read_frame(buffer) == ({"n": 1}, b"one")
        assert read_frame(buffer) == ({"n": 2}, b"two")

    def test_bad_magic(self):
        buffer = io.BytesIO(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ProtocolError, match="magic"):
            read_frame(buffer)

    def test_bad_version(self):
        buffer = io.BytesIO()
        write_frame(buffer, {}, b"")
        raw = bytearray(buffer.getvalue())
        raw[len(MAGIC)] = 99
        with pytest.raises(ProtocolError, match="version"):
            read_frame(io.BytesIO(bytes(raw)))

    def test_truncated_frame(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"op": "parse"}, b"payload")
        truncated = buffer.getvalue()[:-3]
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame(io.BytesIO(truncated))

    def test_oversized_body_rejected_before_read(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            roundtrip({"op": "parse"}, b"x" * 100, max_body=10)

    def test_oversized_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            write_frame(io.BytesIO(),
                        {"pad": "y" * (MAX_HEADER_BYTES + 1)})

    def test_non_dict_header_rejected(self):
        buffer = io.BytesIO()
        # Hand-build a frame whose header JSON is a list.
        import json
        import struct
        header_json = json.dumps([1, 2]).encode()
        buffer.write(MAGIC)
        buffer.write(struct.pack("<HI", 1, len(header_json)))
        buffer.write(header_json)
        buffer.write(struct.pack("<Q", 0))
        buffer.seek(0)
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame(buffer)


class TestOptionsCodec:
    def test_none_passes_through(self):
        assert options_from_wire(None) is None

    def test_default_options_roundtrip(self):
        options = ParseOptions()
        decoded = options_from_wire(options_to_wire(options))
        assert decoded.dialect == options.dialect
        assert decoded.chunk_size == options.chunk_size
        assert decoded.tagging_mode == options.tagging_mode
        assert decoded.column_count_policy == options.column_count_policy
        assert decoded.schema is None

    def test_exotic_options_roundtrip(self):
        options = ParseOptions(
            dialect=Dialect(delimiter=b";", quote=b"'", comment=b"#",
                            strip_carriage_return=False),
            chunk_size=17,
            kernel_stride=2,
            tagging_mode=TaggingMode.DELIMITED,
            column_count_policy=ColumnCountPolicy.STRICT,
            infer_types=True,
            schema=Schema([Field(name="id", dtype=DataType.INT64),
                           Field(name="name", dtype=DataType.STRING)]),
        )
        decoded = options_from_wire(options_to_wire(options))
        assert decoded.dialect == options.dialect
        assert decoded.chunk_size == 17
        assert decoded.kernel_stride == 2
        assert decoded.tagging_mode == TaggingMode.DELIMITED
        assert decoded.column_count_policy == ColumnCountPolicy.STRICT
        assert decoded.infer_types is True
        assert [(f.name, f.dtype) for f in decoded.schema] == \
            [("id", DataType.INT64), ("name", DataType.STRING)]

    def test_columns_shorthand(self):
        decoded = options_from_wire({"schema": {"columns": 3}})
        assert len(list(decoded.schema)) == 3

    def test_custom_dfa_cannot_travel(self):
        options = ParseOptions(dfa=rfc4180_dfa())
        with pytest.raises(ServeError, match="in-process"):
            options_to_wire(options)

    @pytest.mark.parametrize("name,value", [
        ("strict", True),
        ("skip_rows", frozenset({0})),
        ("skip_records", frozenset({0})),
        ("select_columns", (0,)),
        ("null_literals", ("NA",)),
        ("inline_terminator", 0x1F),
    ])
    def test_output_shaping_option_cannot_travel(self, name, value):
        """Refused rather than silently dropped: the server would parse
        with the default instead."""
        options = ParseOptions(**{name: value})
        with pytest.raises(ServeError, match=repr(name)):
            options_to_wire(options)

    @pytest.mark.parametrize("attr,value", [
        ("nullable", False),
        ("default", "-"),
        ("decimal_scale", 4),
    ])
    def test_schema_field_attribute_cannot_travel(self, attr, value):
        field = Field(name="price", dtype=DataType.DECIMAL,
                      **{attr: value})
        options = ParseOptions(schema=Schema([field]))
        with pytest.raises(ServeError, match=f"'price'.*{attr!r}"):
            options_to_wire(options)

    def test_legacy_minimize_dfa_key_is_ignored(self):
        """A spec from a peer that still sends ``minimize_dfa`` decodes;
        minimisation is no longer optional, so the key has no effect."""
        spec = options_to_wire(ParseOptions(chunk_size=17))
        assert "minimize_dfa" not in spec
        for legacy in (True, False):
            decoded = options_from_wire({**spec, "minimize_dfa": legacy})
            assert decoded == options_from_wire(spec)
            assert decoded.chunk_size == 17

    def test_legacy_partition_strategy_key_is_ignored(self):
        """A spec from a peer that still sends ``partition_strategy``
        decodes, whatever the value: every parse partitions with field
        runs, so the key has no effect."""
        spec = options_to_wire(ParseOptions(chunk_size=17))
        assert "partition_strategy" not in spec
        for legacy in ("radix", "field-run", None, "quicksort"):
            decoded = options_from_wire({**spec,
                                         "partition_strategy": legacy})
            assert decoded == options_from_wire(spec)
            assert decoded.chunk_size == 17

    def test_malformed_options_raise_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed options"):
            options_from_wire({"tagging_mode": "no-such-mode"})
        with pytest.raises(ProtocolError, match="malformed options"):
            options_from_wire({"delimiter": 5})
