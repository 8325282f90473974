"""The paper's per-chunk tagging formulation (§3.1-3.2), as test oracles.

* :func:`compute_emissions` — the unit-stride emission sweep: every chunk
  re-simulates one DFA instance from its start state, one symbol per
  step.  The kernel plans of :mod:`repro.kernels.strided` are tested
  bit-identical to it at every stride.
* :func:`tag_chunked` — per-chunk counts and rel/abs offsets, prefix
  scans across chunks (:mod:`repro.reference.core.offsets`), then a
  per-chunk tagging sweep seeded with the scanned offsets
  (:func:`sweep_chunk_ids`), sampled at the segment starts.
  Structurally identical to the GPU kernels; the oracle for
  :func:`repro.core.tagging.tag_global` and the ablation benchmark's
  comparison point.
* :func:`symbol_ids` — a :class:`~repro.core.tagging.TagResult`'s
  per-segment tags expanded to one record and one column per symbol.
"""

from __future__ import annotations

# parlint: hot-path -- per-chunk oracle sweeps; loops need waivers

import numpy as np

from repro.core.chunking import Chunking
from repro.core.tagging import (TagResult, _delimiter_positions, _finalise,
                                index_dtype, segment_lengths)
from repro.dfa.automaton import Dfa, Emission
from repro.errors import ParseError
from repro.reference.core.offsets import compute_chunk_offsets

__all__ = ["compute_emissions", "sweep_chunk_ids", "tag_chunked",
           "symbol_ids"]


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


def sweep_chunk_ids(emissions: np.ndarray, chunking: Chunking
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol record/column ids via the paper's per-chunk offsets.

    Pads the emission stream back to the chunk grid, computes each chunk's
    record count and rel/abs column offset, scans both across chunks
    (:func:`~repro.reference.core.offsets.compute_chunk_offsets`), then
    assigns ids in one data-parallel sweep over chunk-local positions
    with per-chunk running counters seeded from the scans.

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
    first symbol, in the same index width as
    :func:`~repro.core.tagging.tag_global`.
    """
    record_ids, column_ids = sweep_chunk_ids(emissions, chunking)
    delim_positions = _delimiter_positions(emissions)
    index = index_dtype(emissions.size)
    segment_starts = np.append(0, delim_positions + 1)
    return _finalise(emissions, final_state, delim_positions.astype(index),
                     record_ids[segment_starts].astype(index),
                     column_ids[segment_starts].astype(index))


def symbol_ids(tags: TagResult) -> tuple[np.ndarray, np.ndarray]:
    """``(record_ids, column_ids)``, each ``(n,)``: the record and column
    of every symbol, expanded from the segments."""
    lengths = segment_lengths(tags.delim_positions, tags.emissions.size)
    return (np.repeat(tags.segment_records, lengths),
            np.repeat(tags.segment_columns, lengths))
