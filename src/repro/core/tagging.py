"""Phase 2 — emission codes and record/column tags (paper §3.1-3.2).

With every chunk's start state known (phase 1), each thread re-simulates a
*single* DFA instance over its chunk, classifying every symbol via the
emission table; the three bitmap indexes of §3.1 (record delimiters,
field delimiters, control symbols) are these codes in boolean form, so
only the codes are kept.  The §3.2 offset machinery then tags every
symbol with the record and column it belongs to.

Those tags only change at delimiters, so they are carried once per
*segment* — the span from just after one delimiter up to and including the
next — rather than once per symbol: ``O(num_fields)`` memory, expanded
per symbol only by the test helper
:func:`repro.reference.core.tagging.symbol_ids`, and int32
whenever the input fits (:func:`index_dtype`).

:func:`tag_global` computes the segment tags from the delimiter positions
with two small prefix sums; every parse runs it, on both executors.  The
paper's per-chunk formulation (rel/abs offset scans and a tagging sweep
seeded with them) is :func:`repro.reference.core.tagging.tag_chunked`,
its bit-identical test oracle.
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

from dataclasses import dataclass

import numpy as np

from repro.dfa.automaton import Emission

__all__ = ["TagResult", "tag_global", "segment_lengths", "index_dtype",
           "last_record_delimiter"]


def index_dtype(size: int) -> type:
    """The narrowest of int32/int64 indexing ``size`` positions (and a
    virtual trailing delimiter at ``size``); later stages keep it."""
    return np.int32 if size < np.iinfo(np.int32).max else np.int64


def segment_lengths(delim_positions: np.ndarray, n: int) -> np.ndarray:
    """Symbols per segment of an ``n``-symbol input cut at the delimiters.

    Segment ``j`` runs from just after delimiter ``j - 1`` up to and
    including delimiter ``j``; the last of the ``m + 1`` segments runs to
    the end of the input and is empty when the input ends on a delimiter.
    The lengths keep the dtype of ``delim_positions``.
    """
    index = delim_positions.dtype.type
    return np.diff(delim_positions, prepend=index(-1), append=index(n - 1))


def last_record_delimiter(delim_positions: np.ndarray,
                          segment_records: np.ndarray) -> int:
    """Position of the last record delimiter, ``-1`` if there is none:
    the one closing the segment before the last record's first."""
    records = int(segment_records[-1])
    if not records:
        return -1
    return int(delim_positions[np.searchsorted(segment_records, records) - 1])


@dataclass
class TagResult:
    """Per-symbol classification and per-segment tags for the whole input.

    The emission codes, the one per-symbol array, have input length
    (padding removed); the tags are stored per segment
    (:func:`segment_lengths`): every symbol of a segment belongs to the
    same record and column, a delimiter carrying the tags of the field it
    terminates (its kind is its emission code).
    """

    #: ``(n,)`` :class:`~repro.dfa.automaton.Emission` codes.
    emissions: np.ndarray
    #: DFA state after the last input symbol.
    final_state: int
    #: Whether the input ends mid-record (no trailing record delimiter).
    has_trailing_record: bool
    #: Total records, including a trailing unterminated one.
    num_records: int
    #: ``(m,)`` ascending positions of all delimiters (record or field)
    #: — the segment boundaries.  This and the two arrays below share
    #: one :func:`index_dtype`.
    delim_positions: np.ndarray
    #: ``(m + 1,)`` — record of every symbol of segment ``j``.
    segment_records: np.ndarray
    #: ``(m + 1,)`` — column of every symbol of segment ``j``.
    segment_columns: np.ndarray

    def record_at(self, position: int) -> int:
        """The record the symbol at ``position`` belongs to."""
        segment = np.searchsorted(self.delim_positions, position)
        return int(self.segment_records[segment])


def _delimiter_positions(emissions: np.ndarray) -> np.ndarray:
    """Ascending field and record delimiter positions as intp, the width
    NumPy gathers with; narrow to :func:`index_dtype` to keep them."""
    # uint8 subtraction wraps DATA (0) to 255, so exactly the codes
    # FIELD_DELIMITER (1) and RECORD_DELIMITER (2) stay below 2.
    is_delim = (emissions - np.uint8(Emission.FIELD_DELIMITER)) < 2
    return np.flatnonzero(is_delim)


def _finalise(emissions: np.ndarray, final_state: int,
              delim_positions: np.ndarray, segment_records: np.ndarray,
              segment_columns: np.ndarray) -> TagResult:
    # A trailing record is content after the last record delimiter: any
    # code but COMMENT there (a lone ``""`` is CONTROL, one empty field).
    # For a delimiter-terminated input the slice is a few bytes.
    tail = emissions[last_record_delimiter(delim_positions,
                                           segment_records) + 1:]
    trailing = bool((tail != np.uint8(Emission.COMMENT)).any())
    return TagResult(
        emissions=emissions,
        final_state=final_state,
        has_trailing_record=trailing,
        num_records=int(segment_records[-1]) + (1 if trailing else 0),
        delim_positions=delim_positions,
        segment_records=segment_records,
        segment_columns=segment_columns,
    )


def tag_global(emissions: np.ndarray, final_state: int) -> TagResult:
    """Segment tags via whole-input delimiter bookkeeping.

    With ``m`` delimiters, segment ``j`` (just after delimiter ``j - 1``
    up to and including delimiter ``j``) belongs to

    * record ``r_j`` = record delimiters among the first ``j`` delimiters;
    * column ``j - t[r_j]`` = delimiters seen so far minus the delimiter
      count at the start of the enclosing record (``t``) — inside a record
      every such delimiter is a field delimiter, so this is the running
      column index, resetting at record boundaries.

    Both are ``O(m)`` prefix sums over the delimiter positions, found in
    one pass over the emission codes; nothing else per-symbol is built.
    """
    delim_positions = _delimiter_positions(emissions)
    index = index_dtype(emissions.size)
    m = delim_positions.size
    # Gather with the intp positions: an int32 index array would be cast
    # back to intp first.  Narrow only afterwards.
    is_record = emissions[delim_positions] \
        == np.uint8(Emission.RECORD_DELIMITER)
    delim_positions = delim_positions.astype(index, copy=False)
    segment_records = np.empty(m + 1, dtype=index)
    segment_records[0] = 0
    np.cumsum(is_record, dtype=index, out=segment_records[1:])
    record_start_delims = np.empty(int(segment_records[-1]) + 1,
                                   dtype=index)
    record_start_delims[0] = 0
    record_start_delims[1:] = np.flatnonzero(is_record) + 1
    segment_columns = np.arange(m + 1, dtype=index) \
        - record_start_delims[segment_records]
    return _finalise(emissions, final_state, delim_positions,
                     segment_records, segment_columns)
