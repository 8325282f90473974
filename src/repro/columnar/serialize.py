"""Serialisation of tables to an Arrow-flavoured binary framing.

The paper's output "complies with the format specified by Apache Arrow"
(§5) so downstream engines can consume it zero-copy.  This module writes
a table's buffers — schema description, validity bitmaps, offsets, data —
into one contiguous byte stream, and reads it back, without a ``pyarrow``
dependency.  There is one framing, Feather-style (:func:`write_feather` /
:func:`read_feather`): what ``parse --output`` writes and what ``serve``
returns.  It is random-access in the spirit of Feather/Arrow IPC files: a
versioned JSON header maps every buffer (explicit numpy dtype string,
hence explicit endianness; absolute offset; byte length), and the buffer
bytes follow verbatim at 8-byte-aligned offsets.  A reader can locate and
map any single buffer from the header alone.  Buffers from a non-native
byte order round-trip: the dtype string records the order and
:func:`read_feather` swaps to native on load.

Layout::

    magic b"RPFE" + u16 version (1)
    u32 header_json_length, header JSON, zero padding to 8-byte alignment
    buffer bytes, each buffer starting at an 8-byte-aligned offset
    (absolute offsets + byte lengths recorded in the header)

The reader rejects malformed streams (bad magic, truncation, trailing
bytes) and the writer guards its length fields against overflow with
:class:`~repro.errors.ColumnarError` instead of silently truncating.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from repro.columnar.buffers import ValidityBitmap
from repro.columnar.schema import DataType, Field, Schema
from repro.columnar.table import Column, Table
from repro.errors import ColumnarError

__all__ = ["write_feather", "read_feather"]

FEATHER_MAGIC = b"RPFE"
FEATHER_VERSION = 1

#: Maximum values representable in the framing's length fields.  Module
#: constants (rather than inline literals) so overflow tests can lower
#: them without materialising multi-GiB payloads.
_U32_MAX = 0xFFFF_FFFF
_U64_MAX = 0xFFFF_FFFF_FFFF_FFFF


def _checked_u32(value: int, what: str) -> bytes:
    if value > _U32_MAX:
        raise ColumnarError(
            f"{what} ({value} bytes) exceeds the u32 length field")
    return struct.pack("<I", value)


def _checked_u64(value: int, what: str) -> int:
    if value > _U64_MAX:
        raise ColumnarError(
            f"{what} ({value} bytes) exceeds the u64 length field")
    return value


def _column_wire_buffers(column: Column
                         ) -> tuple[np.ndarray, np.ndarray | None,
                                    np.ndarray]:
    # parlint: returns-borrowed -- wire buffers alias the column by design
    """The (validity, offsets, values) triple as written to disk.

    Zero-copy sliced columns view a larger shared values buffer through
    non-zero-based offsets; on the wire they are canonical —
    offsets rebased to zero and values cut to the referenced range.
    """
    validity = np.asarray(column.validity.buffer)
    if column.field.dtype.is_variable_width:
        offsets = column.offsets
        assert offsets is not None
        offsets = offsets.astype(np.int64, copy=False)
        lo = int(offsets[0])
        if lo:
            offsets = offsets - lo
        values = column.data[lo:int(offsets[-1]) + lo]
        return validity, offsets, values
    return validity, None, column.data


def _field_json(field: Field) -> dict:
    return {"name": field.name, "dtype": field.dtype.value,
            "nullable": field.nullable,
            "decimal_scale": field.decimal_scale}


# -- Feather-style: versioned header + aligned verbatim buffers --------------

_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def write_feather(table: Table, path: str | Path | None = None) -> bytes:
    """Serialise a table in the Feather-style framed format.

    Returns the byte stream; when ``path`` is given the stream is also
    written to that file.  Every buffer lands verbatim (no re-encoding)
    at an 8-byte-aligned offset recorded in the header together with its
    exact numpy dtype string — including byte order — so a reader can
    map buffers individually and detect foreign endianness.
    """
    column_entries: list[dict] = []
    payload: list[np.ndarray] = []
    # Header length shifts the buffer region, so record buffer offsets
    # relative to the region start and rebase after sizing the header.
    cursor = 0
    for column, field in zip(table.columns, table.schema):
        validity, offsets, values = _column_wire_buffers(column)
        buffers = []
        for kind, buf in (("validity", validity), ("offsets", offsets),
                          ("values", values)):
            if buf is None:
                continue
            cursor = _aligned(cursor)
            nbytes = _checked_u64(int(buf.nbytes), f"{kind} buffer of "
                                  f"column {field.name!r}")
            buffers.append({"kind": kind, "dtype": buf.dtype.str,
                            "offset": cursor, "length": nbytes})
            payload.append(buf)
            cursor += nbytes
        column_entries.append({**_field_json(field),
                               "buffers": buffers})

    header = {
        "version": FEATHER_VERSION,
        "num_rows": table.num_rows,
        "columns": column_entries,
    }
    # The buffer region starts after the header, but the header encodes
    # the buffers' absolute offsets — whose digit count depends on the
    # region start.  Iterate to the (monotone, quickly reached) fixed
    # point.
    relative = [buf["offset"] for entry in column_entries
                for buf in entry["buffers"]]
    region_start = 0
    while True:
        specs = [buf for entry in column_entries
                 for buf in entry["buffers"]]
        for spec, rel in zip(specs, relative):
            spec["offset"] = rel + region_start
        header_json = json.dumps(header).encode("utf-8")
        prefix_len = len(FEATHER_MAGIC) + 2 + 4 + len(header_json)
        if _aligned(prefix_len) == region_start:
            break
        region_start = _aligned(prefix_len)

    parts: list[bytes] = [FEATHER_MAGIC,
                          struct.pack("<H", FEATHER_VERSION),
                          _checked_u32(len(header_json), "feather header"),
                          header_json,
                          b"\x00" * (region_start - prefix_len)]
    pos = region_start
    for buf in payload:
        aligned = _aligned(pos)
        parts.append(b"\x00" * (aligned - pos))
        raw = buf.tobytes()
        parts.append(raw)
        pos = aligned + len(raw)
    stream = b"".join(parts)
    if path is not None:
        Path(path).write_bytes(stream)
    return stream


def read_feather(source: bytes | str | Path) -> Table:
    """Read a table written by :func:`write_feather`.

    ``source`` is the byte stream or a file path.  Buffers recorded with
    a non-native byte order are swapped to native on load.
    """
    raw = source if isinstance(source, bytes) else \
        Path(source).read_bytes()
    prefix = len(FEATHER_MAGIC)
    if raw[:prefix] != FEATHER_MAGIC:
        raise ColumnarError("not a feather-style table (bad magic)")
    if len(raw) < prefix + 6:
        raise ColumnarError("truncated feather stream")
    version, = struct.unpack_from("<H", raw, prefix)
    if version != FEATHER_VERSION:
        raise ColumnarError(f"unsupported feather version {version}")
    header_len, = struct.unpack_from("<I", raw, prefix + 2)
    header_end = prefix + 6 + header_len
    if header_end > len(raw):
        raise ColumnarError("truncated feather stream")
    header = json.loads(raw[prefix + 6:header_end].decode("utf-8"))
    num_rows = int(header["num_rows"])

    columns: list[Column] = []
    fields: list[Field] = []
    # The stream ends exactly at the last buffer's end (the buffer region
    # start when there are no buffers) — anything beyond is trailing
    # garbage, anything short is truncation.
    end = _aligned(header_end)
    for entry in header["columns"]:
        field = Field(name=entry["name"],
                      dtype=DataType(entry["dtype"]),
                      nullable=entry["nullable"],
                      decimal_scale=entry["decimal_scale"])
        buffers: dict[str, np.ndarray] = {}
        for spec in entry["buffers"]:
            offset, length = int(spec["offset"]), int(spec["length"])
            if offset % _ALIGN:
                raise ColumnarError(
                    f"misaligned {spec['kind']} buffer at {offset}")
            if offset + length > len(raw):
                raise ColumnarError("truncated feather stream")
            dtype = np.dtype(spec["dtype"])
            if length % dtype.itemsize:
                raise ColumnarError(
                    f"{spec['kind']} buffer length {length} is not a "
                    f"multiple of its item size {dtype.itemsize}")
            buf = np.frombuffer(raw, dtype=dtype,
                                count=length // dtype.itemsize,
                                offset=offset)
            if dtype.byteorder not in ("=", "|") \
                    and dtype != dtype.newbyteorder("="):
                buf = buf.astype(dtype.newbyteorder("="))
            else:
                buf = buf.copy()
            buffers[spec["kind"]] = buf
            end = max(end, offset + length)
        validity = ValidityBitmap(buffers["validity"], num_rows)
        if field.dtype.is_variable_width:
            columns.append(Column(field, buffers["values"], validity,
                                  buffers["offsets"]))
        else:
            columns.append(Column(field, buffers["values"], validity))
        fields.append(field)
    if len(raw) != end:
        raise ColumnarError("feather stream length mismatch "
                            "(trailing or missing bytes)")
    return Table(Schema(fields), columns)
