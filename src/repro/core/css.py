"""CSS index generation (paper §3.3, §4.1 — Figures 5 and 6).

After partitioning, each column's symbols lie contiguously in memory (the
*concatenated symbol string*).  Before values can be generated, the
algorithm needs an index giving every field's offset and length within the
CSS.  How the index is built depends on the tagging mode:

* **record-tagged** — run-length encode the column's record tags: each run
  is one field (its value = the record, its length = the symbol count);
  exclusive prefix sum over the lengths gives the offsets.  Empty fields
  contribute no symbols and are absent from the index (they later become
  NULL / the column default — paper §4.3).
* **inline-terminated** — fields end at occurrences of the terminator
  byte; the index is simply the terminator positions.  Empty fields *are*
  present (zero-length).  Requires the terminator byte not to occur in
  data and a consistent column count (field ordinal == record ordinal).
* **vector-delimited** — like inline, but field ends are marked in an
  auxiliary boolean vector instead of a reserved byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParseError
from repro.scan.numpy_scan import exclusive_sum
from repro.utils.rle import run_length_encode

__all__ = ["ColumnIndex", "tagged_index", "inline_index", "delimited_index"]


@dataclass
class ColumnIndex:
    """Field index into one column's CSS.

    Attributes
    ----------
    records:
        ``(num_fields,)`` — the record each field belongs to.  For
        the inline/delimited modes this is the field *ordinal*, which under
        their consistent-column-count precondition equals the record
        ordinal among retained records.
    offsets:
        ``(num_fields,)`` — field start within the column CSS.
    lengths:
        ``(num_fields,)`` — symbol count of the field (excluding any
        terminator).  All three are in the partition's index dtype
        (int32 whenever the input fits) in the record-tagged mode.
    """

    records: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @property
    def num_fields(self) -> int:
        return len(self.records)


def tagged_index(record_tags: np.ndarray) -> ColumnIndex:
    """Index from a column's record tags (record-tagged mode, Figure 5).

    >>> idx = tagged_index(np.array([0, 0, 0, 0, 1, 1]))
    >>> idx.records.tolist(), idx.offsets.tolist(), idx.lengths.tolist()
    ([0, 1], [0, 4], [4, 2])
    """
    records, lengths = run_length_encode(np.asarray(record_tags,
                                                    dtype=np.int64))
    offsets = exclusive_sum(lengths)
    return ColumnIndex(records=records.astype(np.int64),
                       offsets=offsets, lengths=lengths)


def inline_index(css: np.ndarray, terminator: int) -> ColumnIndex:
    """Index from terminator positions (inline-terminated mode, Figure 6).

    The CSS must end with a terminator (the partition step appends one for
    a trailing unterminated field).

    >>> css = np.frombuffer(b"Apples\\x1e\\x1ePears\\x1e", dtype=np.uint8)
    >>> idx = inline_index(css, 0x1e)
    >>> idx.offsets.tolist(), idx.lengths.tolist()
    ([0, 7, 8], [6, 0, 5])
    """
    css = np.asarray(css)
    term_positions = np.flatnonzero(css == terminator).astype(np.int64)
    if css.size and (term_positions.size == 0
                     or term_positions[-1] != css.size - 1):
        raise ParseError("inline CSS must end with a terminator")
    num_fields = term_positions.size
    offsets = np.empty(num_fields, dtype=np.int64)
    if num_fields:
        offsets[0] = 0
        offsets[1:] = term_positions[:-1] + 1
    lengths = term_positions - offsets
    return ColumnIndex(records=np.arange(num_fields, dtype=np.int64),
                       offsets=offsets, lengths=lengths)


def delimited_index(field_end_marks: np.ndarray) -> ColumnIndex:
    """Index from the auxiliary boolean vector (vector-delimited mode).

    ``field_end_marks[i]`` is True where CSS position ``i`` holds a field
    delimiter (the byte itself is ignored during conversion).

    >>> marks = np.array([0, 0, 0, 1, 1, 0, 0, 1], dtype=bool)
    >>> idx = delimited_index(marks)
    >>> idx.offsets.tolist(), idx.lengths.tolist()
    ([0, 4, 5], [3, 0, 2])
    """
    marks = np.asarray(field_end_marks, dtype=bool)
    end_positions = np.flatnonzero(marks).astype(np.int64)
    if marks.size and (end_positions.size == 0
                       or end_positions[-1] != marks.size - 1):
        raise ParseError("delimited CSS must end with a field mark")
    num_fields = end_positions.size
    offsets = np.empty(num_fields, dtype=np.int64)
    if num_fields:
        offsets[0] = 0
        offsets[1:] = end_positions[:-1] + 1
    lengths = end_positions - offsets
    return ColumnIndex(records=np.arange(num_fields, dtype=np.int64),
                       offsets=offsets, lengths=lengths)
