"""Symbol-level chunk-parallel parsing for variable-length encodings (§4.2).

The byte-level pipeline in :mod:`repro.core.parser` is correct for any
ASCII-compatible encoding (UTF-8 continuation bytes can never collide with
ASCII delimiters).  For encodings where that does not hold — UTF-16, or
formats whose control *symbols* are multi-byte — the DFA must consume
*code points*, and a code point may cross a chunk boundary.

This module implements the paper's §4.2 discipline at the symbol level:

* the thread owning a symbol's **leading** bytes reads the whole symbol,
  continuing past its chunk's end if needed;
* threads seeing only **trailing** bytes skip them (UTF-8: ``0b10xxxxxx``
  prefixes; UTF-16: low surrogates) —

both provided by :class:`~repro.reference.core.chunking.SymbolReader` —
and then runs the ordinary ParPaRaw phase structure over code points: per-chunk
state-transition vectors, the composition scan, and a context-aware
emission pass.  Output equals a sequential symbol-level simulation for
every chunk size (property tested), which is precisely the §4.2 claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.reference.core.chunking import SymbolReader
from repro.dfa.automaton import Dfa, Emission
from repro.reference.dfa.transitions import compose, identity_vector
from repro.errors import ParseError

__all__ = ["SymbolDfa", "symbol_transition_vectors", "parse_symbols"]


@dataclass(frozen=True)
class SymbolDfa:
    """A DFA lifted from bytes to Unicode code points.

    ``classify`` maps a code point to one of the underlying DFA's symbol
    groups; the default sends ASCII code points through the byte table and
    everything else to the catch-all group (correct for all dialects in
    this library — their control symbols are ASCII).
    """

    dfa: Dfa
    classify: Callable[[int], int] | None = None

    def group_of(self, code_point: int) -> int:
        if self.classify is not None:
            return self.classify(code_point)
        if code_point < 128:
            return int(self.dfa.symbol_groups[code_point])
        return int(self.dfa.symbol_groups[0xFF])  # catch-all group


def _chunk_starts(data: bytes, chunk_size: int) -> list[int]:
    if chunk_size <= 0:
        raise ParseError("chunk_size must be positive")
    if not data:
        return [0]
    return list(range(0, len(data), chunk_size))


def symbol_transition_vectors(sdfa: SymbolDfa, data: bytes,
                              chunk_size: int,
                              encoding: str = "utf-8"
                              ) -> list[tuple[int, ...]]:
    """Per-chunk STVs over *code points*, honouring boundary skipping.

    Each chunk's vector is computed by reading the chunk with a
    :class:`SymbolReader` — skipping leading trailing-bytes, finishing a
    symbol whose lead byte falls inside the chunk — and advancing all
    hypothetical DFA instances per code point (the §3.1 loop, one level
    up).
    """
    dfa = sdfa.dfa
    vectors: list[tuple[int, ...]] = []
    for start in _chunk_starts(data, chunk_size):
        vector = list(identity_vector(dfa.num_states))
        for code_point in SymbolReader(data, start, chunk_size, encoding):
            group = sdfa.group_of(code_point)
            for state in range(dfa.num_states):
                vector[state] = int(dfa.transitions[group, vector[state]])
        vectors.append(tuple(vector))
    return vectors


def parse_symbols(sdfa: SymbolDfa, data: bytes, chunk_size: int,
                  encoding: str = "utf-8"
                  ) -> tuple[list[list[str | None]], int]:
    """Chunk-parallel symbol-level parsing into records of string fields.

    Phase structure mirrors the byte pipeline: STVs -> exclusive
    composition scan -> per-chunk emission pass seeded with the recovered
    start states -> record assembly.  Returns ``(records, final_state)``
    with the same record/field semantics as
    :func:`repro.baselines.sequential.sequential_rows` (fields with no
    data symbols are ``None``).
    """
    dfa = sdfa.dfa
    vectors = symbol_transition_vectors(sdfa, data, chunk_size, encoding)

    # Exclusive composition scan -> each chunk's entering context.
    start_states: list[int] = []
    prefix = identity_vector(dfa.num_states)
    for vector in vectors:
        start_states.append(prefix[dfa.start_state])
        prefix = compose(prefix, vector)
    final_state = prefix[dfa.start_state]

    # Context-aware emission pass, chunk by chunk (each independent given
    # its start state), then record assembly over the concatenation.
    records: list[list[str | None]] = []
    fields: list[str | None] = []
    buffer: list[str] = []
    has_content = False
    has_data = False
    for chunk_index, start in enumerate(_chunk_starts(data, chunk_size)):
        state = start_states[chunk_index]
        for code_point in SymbolReader(data, start, chunk_size, encoding):
            group = sdfa.group_of(code_point)
            emission = Emission(int(dfa.emissions[state, group]))
            state = int(dfa.transitions[group, state])
            if emission is Emission.DATA:
                buffer.append(chr(code_point))
                has_data = True
                has_content = True
            elif emission is Emission.FIELD_DELIMITER:
                fields.append("".join(buffer) if has_data else None)
                buffer.clear()
                has_data = False
                has_content = True
            elif emission is Emission.RECORD_DELIMITER:
                fields.append("".join(buffer) if has_data else None)
                buffer.clear()
                has_data = False
                records.append(fields)
                fields = []
                has_content = False
            elif emission is Emission.CONTROL:
                has_content = True
    if has_content:
        fields.append("".join(buffer) if has_data else None)
        records.append(fields)
    return records, final_state
