"""Arrow-style columnar memory format.

The paper configures ParPaRaw's output to comply with the Apache Arrow
columnar format (§5).  ``pyarrow`` is not a dependency here; instead this
subpackage implements the relevant subset of the layout from scratch:

* fixed-width typed columns backed by a data buffer plus a packed validity
  bitmap (LSB-first, as Arrow specifies);
* variable-width (string/binary) columns backed by an int64 offsets buffer
  and a data buffer;
* :class:`~repro.columnar.schema.Schema` / :class:`~repro.columnar.table.Table`
  containers with equality, slicing, and row materialisation for tests.
"""

from repro.columnar.schema import DataType, Field, Schema
from repro.columnar.buffers import (
    BufferColumn,
    ValidityBitmap,
    pack_validity,
    unpack_validity,
)
from repro.columnar import guard
from repro.columnar.ops import concat_buffers, slice_buffers, take_buffers
from repro.columnar.table import Column, Table, concat_tables
from repro.columnar.serialize import read_feather, write_feather

__all__ = [
    "DataType",
    "Field",
    "Schema",
    "guard",
    "BufferColumn",
    "ValidityBitmap",
    "pack_validity",
    "unpack_validity",
    "concat_buffers",
    "slice_buffers",
    "take_buffers",
    "Column",
    "Table",
    "concat_tables",
    "write_feather",
    "read_feather",
]
