"""Skipping rows and records, selecting columns (paper §4.3).

* **Rows** are physical lines; a record may span several of them (a quoted
  field can contain record delimiters).  Ignoring rows can therefore change
  how subsequent symbols parse, so — exactly as the paper prescribes — rows
  are pruned in an *initial pass* over the raw input, before parsing.
* **Records** are skipped after tagging: their symbols are marked
  irrelevant and never partitioned.
* **Columns** are selected after tagging, the same way.

:class:`Selection` carries these decisions from validation to conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.columnar.schema import Schema
from repro.core.validation import ValidationReport
from repro.errors import ParseError

__all__ = ["Selection", "prune_rows", "row_mapping", "selected_column_mask"]


@dataclass
class Selection:
    """Validation's decisions that only conversion and the parser read.

    Built once by the validate stage and handed through the partition and
    convert payloads by reference.
    """

    #: Format/column-count findings.
    report: ValidationReport
    #: Output schema, or ``None`` when it is inferred during conversion.
    schema: Schema | None
    #: Column count (declared or inferred).
    num_columns: int
    #: ``(num_columns,)`` bool — columns to materialise.
    column_mask: np.ndarray
    #: ``(num_records,)`` int64 — dense output row per record (-1 dropped).
    rows_of_record: np.ndarray
    #: Output row count.
    num_rows: int
    #: Records the tagger found.
    num_records: int
    #: Records dropped by policy or the invalid tail.
    rejected_records: int


def prune_rows(data: np.ndarray, skip_rows: frozenset[int] | set[int],
               record_delimiter: int) -> np.ndarray:
    """Remove the physical lines with the given 0-based indexes.

    A line includes its terminating record-delimiter byte.  The pass is a
    vectorised line-id labelling plus a mask — the initial pass of §4.3.
    """
    if data.dtype != np.uint8:
        raise ParseError("prune_rows expects a uint8 array")
    if not skip_rows:
        return data
    if any(r < 0 for r in skip_rows):
        raise ParseError("row indexes must be non-negative")
    newline = data == record_delimiter
    # Line id of each byte: number of delimiters strictly before it.
    line_ids = np.zeros(data.size, dtype=np.int64)
    if data.size:
        np.cumsum(newline[:-1], out=line_ids[1:])
    skip = np.array(sorted(skip_rows), dtype=np.int64)
    keep = ~np.isin(line_ids, skip)
    return data[keep]


def row_mapping(valid_records: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense output-row index per record (-1 for dropped records).

    >>> rows, n = row_mapping(np.array([True, False, True]))
    >>> rows.tolist(), n
    ([0, -1, 1], 2)
    """
    valid_records = np.asarray(valid_records, dtype=bool)
    rows = np.full(valid_records.size, -1, dtype=np.int64)
    kept = np.flatnonzero(valid_records)
    rows[kept] = np.arange(kept.size, dtype=np.int64)
    return rows, int(kept.size)


def selected_column_mask(num_columns: int,
                         select: tuple[int, ...] | None) -> np.ndarray:
    """Boolean mask over columns; all True when no selection is given."""
    mask = np.zeros(num_columns, dtype=bool)
    if select is None:
        mask[:] = True
        return mask
    for column in select:
        if column >= num_columns:
            raise ParseError(
                f"selected column {column} out of range "
                f"(input has {num_columns} columns)")
        mask[column] = True
    return mask
