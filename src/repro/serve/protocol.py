"""The serve wire protocol: framed requests over a byte stream.

One frame = one message, in either direction::

    magic  b"RPSV"
    u16    version (1)
    u32    header_json_length
    header JSON (utf-8)
    u64    body_length
    body   bytes (verbatim)

Request headers carry ``op`` plus op-specific fields; the body is the
raw input for ``parse`` and empty otherwise.  Response headers carry
``status`` (``ok``/``rejected``/``timeout``/``error``) plus outcome
fields; an ``ok`` parse response body is the table in the Feather-style
framing of :mod:`repro.columnar.serialize` (``write_feather``), a
``status`` response body is the service status dict as JSON.

Parse options travel as a JSON dict mirroring the CLI surface
(:func:`options_to_wire` / :func:`options_from_wire`): dialect fields,
chunk size, stride, tagging mode, column policy and an optional
schema — either ``{"columns": N}`` (N string columns) or
``{"fields": [[name, dtype], ...]}``.  Options the dict cannot carry —
a custom DFA object, or ``strict``, ``skip_rows``, ``skip_records``,
``select_columns``, ``null_literals``, ``inline_terminator`` or a schema
field's ``nullable``/``default``/``decimal_scale`` set away from its
default — are refused by :func:`options_to_wire` rather than silently
dropped; use the in-process client for those.  The remaining
implementation knob, ``plan``, does not travel either: it changes how a
parse runs, never its output.  Keys of
retired options that an older peer still sends are ignored.

Readers enforce limits before allocating: a header over
``MAX_HEADER_BYTES`` or a body over the reader's ``max_body`` raises
:class:`~repro.errors.ProtocolError`, so a malformed or hostile peer
cannot balloon the server.
"""

from __future__ import annotations

import json
import struct

from repro.columnar.schema import DataType, Field, Schema
from repro.core.options import ColumnCountPolicy, ParseOptions, \
    TaggingMode
from repro.dfa.dialects import Dialect
from repro.errors import ProtocolError, ServeError
from repro.kernels.strided import DEFAULT_TABLE_BUDGET

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_HEADER_BYTES",
    "write_frame",
    "read_frame",
    "options_to_wire",
    "options_from_wire",
]

MAGIC = b"RPSV"
VERSION = 1

#: Headers are small JSON dicts; anything bigger is a broken peer.
MAX_HEADER_BYTES = 1 * 1024 * 1024

#: Default body ceiling for readers that do not pass their own.
DEFAULT_MAX_BODY_BYTES = 1 * 1024 * 1024 * 1024

_PREFIX = struct.Struct("<HI")   # version, header length
_BODY_LEN = struct.Struct("<Q")


# -- framing -----------------------------------------------------------------

def write_frame(stream, header: dict, body: bytes = b"") -> None:
    """Write one frame to a file-like ``stream`` (and flush it)."""
    header_json = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_json) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header of {len(header_json)} bytes exceeds "
            f"{MAX_HEADER_BYTES}")
    stream.write(MAGIC)
    stream.write(_PREFIX.pack(VERSION, len(header_json)))
    stream.write(header_json)
    stream.write(_BODY_LEN.pack(len(body)))
    if body:
        stream.write(body)
    stream.flush()


def _read_exact(stream, count: int, what: str) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({what}: expected "
                f"{count} bytes, missing {remaining})")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream, max_body: int = DEFAULT_MAX_BODY_BYTES
               ) -> tuple[dict, bytes]:
    """Read one frame; returns ``(header, body)``.

    Raises :class:`~repro.errors.ProtocolError` on bad magic, version
    mismatch, truncation, malformed header JSON, or a body length over
    ``max_body`` — checked *before* the body is read, so an oversized
    announcement costs nothing.
    """
    magic = _read_exact(stream, len(MAGIC), "magic")
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    version, header_len = _PREFIX.unpack(
        _read_exact(stream, _PREFIX.size, "prefix"))
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header of {header_len} bytes exceeds "
            f"{MAX_HEADER_BYTES}")
    try:
        header = json.loads(
            _read_exact(stream, header_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame header: {error}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    body_len, = _BODY_LEN.unpack(
        _read_exact(stream, _BODY_LEN.size, "body length"))
    if body_len > max_body:
        raise ProtocolError(
            f"frame body of {body_len} bytes exceeds the reader's "
            f"limit of {max_body}")
    body = _read_exact(stream, body_len, "body") if body_len else b""
    return header, body


# -- options on the wire -----------------------------------------------------

#: ``ParseOptions`` fields that shape a parse's output but have no wire
#: encoding; :func:`options_to_wire` refuses options that set them.
_LOCAL_ONLY_OPTIONS = ("strict", "skip_rows", "skip_records",
                       "select_columns", "null_literals",
                       "inline_terminator")

#: ``Field`` attributes the ``[name, dtype]`` wire pairs cannot carry.
_LOCAL_ONLY_FIELD_ATTRS = ("nullable", "default", "decimal_scale")

_DEFAULT_OPTIONS = ParseOptions()
_DEFAULT_FIELD = Field(name="_", dtype=DataType.STRING)


def _refuse_local_only(options: ParseOptions) -> None:
    """Raise :class:`ServeError` naming the first option the wire would
    silently drop."""
    if options.dfa is not None:
        raise ServeError(
            "options backed by a custom DFA cannot travel by wire; "
            "use the in-process Client")
    for name in _LOCAL_ONLY_OPTIONS:
        if getattr(options, name) != getattr(_DEFAULT_OPTIONS, name):
            raise ServeError(
                f"option {name!r} cannot travel by wire; use the "
                f"in-process Client")
    for f in options.schema or ():
        for attr in _LOCAL_ONLY_FIELD_ATTRS:
            if getattr(f, attr) != getattr(_DEFAULT_FIELD, attr):
                raise ServeError(
                    f"schema field {f.name!r} sets {attr!r}, which cannot "
                    f"travel by wire; use the in-process Client")


def _schema_to_wire(schema: Schema | None):
    if schema is None:
        return None
    return {"fields": [[f.name, f.dtype.value] for f in schema]}


def _schema_from_wire(spec) -> Schema | None:
    if spec is None:
        return None
    if "columns" in spec:
        return Schema.all_strings(int(spec["columns"]))
    return Schema([Field(name=name, dtype=DataType(dtype))
                   for name, dtype in spec["fields"]])


def options_to_wire(options: ParseOptions) -> dict:
    """Encode ``options`` as the JSON dict the protocol carries.

    Raises :class:`~repro.errors.ServeError` when ``options`` set
    anything the dict cannot carry (see the module docstring).
    """
    _refuse_local_only(options)
    dialect = options.dialect
    return {
        "delimiter": dialect.delimiter.decode("latin-1"),
        "quote": None if dialect.quote is None
        else dialect.quote.decode("latin-1"),
        "comment": None if dialect.comment is None
        else dialect.comment.decode("latin-1"),
        "strip_carriage_return": dialect.strip_carriage_return,
        "chunk_size": options.chunk_size,
        "kernel_stride": options.kernel_stride,
        "kernel_table_budget": options.kernel_table_budget,
        "tagging_mode": options.tagging_mode.value,
        "column_count_policy": options.column_count_policy.value,
        "infer_types": options.infer_types,
        "schema": _schema_to_wire(options.schema),
    }


def options_from_wire(spec: dict | None) -> ParseOptions | None:
    """Decode a wire options dict (``None`` passes through).

    Unknown keys are ignored, so a spec from an older peer still decodes:
    its ``minimize_dfa`` and ``partition_strategy`` keys have no effect.
    """
    if spec is None:
        return None
    try:
        dialect = Dialect(
            delimiter=spec.get("delimiter", ",").encode("latin-1"),
            quote=None if spec.get("quote", '"') is None
            else spec.get("quote", '"').encode("latin-1"),
            comment=None if spec.get("comment") is None
            else spec["comment"].encode("latin-1"),
            strip_carriage_return=bool(
                spec.get("strip_carriage_return", True)),
        )
        return ParseOptions(
            dialect=dialect,
            schema=_schema_from_wire(spec.get("schema")),
            chunk_size=int(spec.get("chunk_size", 31)),
            kernel_stride=None if spec.get("kernel_stride") is None
            else int(spec["kernel_stride"]),
            kernel_table_budget=int(
                spec.get("kernel_table_budget", DEFAULT_TABLE_BUDGET)),
            tagging_mode=TaggingMode(spec.get("tagging_mode", "tagged")),
            column_count_policy=ColumnCountPolicy(
                spec.get("column_count_policy", "lenient")),
            infer_types=bool(spec.get("infer_types", False)),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as error:
        raise ProtocolError(f"malformed options: {error}") from None
