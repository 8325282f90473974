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
per symbol only on demand (:attr:`TagResult.record_ids`), and int32
whenever the input fits (:func:`index_dtype`).

Two implementations produce bit-identical :class:`TagResult` values
(property tested):

* :func:`tag_global` — computes the segment tags from the delimiter
  positions with two small prefix sums.  Every parse runs it, on both
  executors.
* :func:`tag_chunked` — the paper's formulation: per-chunk counts and
  rel/abs offsets, prefix scans across chunks (:mod:`repro.core.offsets`),
  then a per-chunk tagging sweep seeded with the scanned offsets, sampled
  at the segment starts.  Structurally identical to the GPU kernels; the
  test oracle for :func:`tag_global` and the ablation benchmark's
  comparison point.
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

from dataclasses import dataclass

import numpy as np

from repro.core.chunking import Chunking
from repro.core.offsets import compute_chunk_offsets
from repro.dfa.automaton import Dfa, Emission
from repro.errors import ParseError

__all__ = ["TagResult", "compute_emissions", "tag_global", "tag_chunked",
           "sweep_chunk_ids", "segment_lengths", "index_dtype",
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

    @property
    def record_ids(self) -> np.ndarray:
        """``(n,)`` record of each symbol, expanded from the segments."""
        return np.repeat(self.segment_records, self._lengths())

    @property
    def column_ids(self) -> np.ndarray:
        """``(n,)`` column of each symbol, expanded from the segments."""
        return np.repeat(self.segment_columns, self._lengths())

    def record_at(self, position: int) -> int:
        """The record the symbol at ``position`` belongs to."""
        segment = np.searchsorted(self.delim_positions, position)
        return int(self.segment_records[segment])

    def _lengths(self) -> np.ndarray:
        return segment_lengths(self.delim_positions, self.emissions.size)


def compute_emissions(groups: np.ndarray, start_states: np.ndarray,
                      dfa: Dfa, chunking: Chunking
                      ) -> tuple[np.ndarray, int, int | None]:
    """Re-simulate one DFA instance per chunk, emitting classifications.

    Parameters
    ----------
    groups:
        ``(num_chunks, chunk_size)`` symbol-group matrix (with padding).
    start_states:
        ``(num_chunks,)`` per-chunk start states from phase 1.
    dfa:
        The padded automaton (must include the padding group).
    chunking:
        Geometry, to strip the padding from the result.

    Returns
    -------
    (emissions, final_state, invalid_position)
        Flat ``(input_bytes,)`` uint8 emissions, the automaton's state
        after the last real symbol, and the first byte offset at which the
        automaton sat in the INV sink (``None`` if never) — the format
        validation of paper §4.3 as a by-product of tagging.
    """
    num_chunks, chunk_size = groups.shape
    states = start_states.astype(np.uint8).copy()
    emissions = np.empty((num_chunks, chunk_size), dtype=np.uint8)
    transitions = dfa.transitions
    emission_table = dfa.emissions
    invalid = dfa.invalid_state
    first_invalid = np.full(num_chunks, -1, dtype=np.int64)
    for j in range(chunk_size):  # parlint: disable=PPR401 -- per-thread serial depth of the tagging sweep; vectorised over num_chunks
        g = groups[:, j]
        emissions[:, j] = emission_table[states, g]
        if invalid is not None:
            newly = (states == invalid) & (first_invalid < 0)
            first_invalid[newly] = j
        states = transitions[g, states]
    final_state = int(states[-1])
    flat = emissions.reshape(-1)[:chunking.input_bytes]

    invalid_position: int | None = None
    if invalid is not None:
        hit = np.flatnonzero(first_invalid >= 0)
        if hit.size:
            chunk = int(hit[0])
            position = chunk * chunk_size + int(first_invalid[chunk])
            if position < chunking.input_bytes:
                invalid_position = position
    return flat, final_state, invalid_position


def _delimiter_positions(emissions: np.ndarray) -> np.ndarray:
    """Ascending field and record delimiter positions, in the input's
    :func:`index_dtype`."""
    # uint8 subtraction wraps DATA (0) to 255, so exactly the codes
    # FIELD_DELIMITER (1) and RECORD_DELIMITER (2) stay below 2.
    is_delim = (emissions - np.uint8(Emission.FIELD_DELIMITER)) < 2
    return np.flatnonzero(is_delim).astype(index_dtype(emissions.size),
                                           copy=False)


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
    index = delim_positions.dtype
    m = delim_positions.size
    is_record = emissions[delim_positions] \
        == np.uint8(Emission.RECORD_DELIMITER)
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


def sweep_chunk_ids(emissions: np.ndarray, chunking: Chunking
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol record/column ids via the paper's per-chunk offsets.

    Pads the emission stream back to the chunk grid, computes each chunk's
    record count and rel/abs column offset, scans both across chunks
    (:func:`~repro.core.offsets.compute_chunk_offsets`), then assigns ids
    in one data-parallel sweep over chunk-local positions with per-chunk
    running counters seeded from the scans.

    Returns ``(record_ids, column_ids)`` of length ``n + 1``: entry ``n``
    holds the counters after the last symbol, the tags of an empty
    trailing segment.
    """
    n = emissions.size
    if n != chunking.input_bytes:
        raise ParseError("emission stream does not match the chunking")
    num_chunks, chunk_size = chunking.num_chunks, chunking.chunk_size
    padded = np.full(num_chunks * chunk_size, int(Emission.COMMENT),
                     dtype=np.uint8)
    padded[:n] = emissions
    grid = padded.reshape(num_chunks, chunk_size)

    record_delim = grid == int(Emission.RECORD_DELIMITER)
    field_delim = grid == int(Emission.FIELD_DELIMITER)
    offsets = compute_chunk_offsets(record_delim, field_delim)

    # Per-chunk tagging sweep: every thread walks its chunk with a record
    # counter and a column counter seeded by the scanned offsets.
    record_counter = offsets.record_offsets.copy()
    column_counter = offsets.entering_column_offsets.copy()
    record_ids = np.empty((num_chunks, chunk_size), dtype=np.int64)
    column_ids = np.empty((num_chunks, chunk_size), dtype=np.int64)
    for j in range(chunk_size):  # parlint: disable=PPR401 -- per-thread serial depth of the tagging sweep; vectorised over num_chunks
        record_ids[:, j] = record_counter
        column_ids[:, j] = column_counter
        is_record = record_delim[:, j]
        is_field = field_delim[:, j]
        record_counter = record_counter + is_record
        column_counter = np.where(is_record, 0,
                                  column_counter + is_field)
    # Padding is COMMENT, so the last chunk's counters are the input's.
    return (np.append(record_ids.reshape(-1)[:n], record_counter[-1]),
            np.append(column_ids.reshape(-1)[:n], column_counter[-1]))


def tag_chunked(emissions: np.ndarray, final_state: int,
                chunking: Chunking) -> TagResult:
    """Segment tags sampled from the paper's per-chunk tagging sweep.

    Runs :func:`sweep_chunk_ids` and reads each segment's tags at its
    first symbol, in the same index width as :func:`tag_global`.
    """
    record_ids, column_ids = sweep_chunk_ids(emissions, chunking)
    delim_positions = _delimiter_positions(emissions)
    index = delim_positions.dtype
    segment_starts = np.append(0, delim_positions + 1)
    return _finalise(emissions, final_state, delim_positions,
                     record_ids[segment_starts].astype(index),
                     column_ids[segment_starts].astype(index))
