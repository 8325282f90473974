"""Input chunking.

ParPaRaw splits the input into chunks of equal size, one per logical thread
(paper §3).  :func:`chunk_groups` produces the ``(num_chunks, chunk_size)``
symbol-group matrix the data-parallel kernels operate on, padding the final
partial chunk with a dedicated no-op group.

Variable-length encodings (paper §4.2) need no boundary handling here:
for *byte-level* automata over ASCII-compatible encodings (all dialects
in :mod:`repro.dfa.dialects`: delimiters/quotes are ASCII and UTF-8
continuation bytes can never collide with them), continuation bytes fall
into the catch-all group and emit DATA, which is exactly right.  The
symbol-level reading discipline of §4.2 (skip a chunk's leading trailing
bytes, finish a code point past the chunk's end) is
:class:`repro.reference.core.chunking.SymbolReader`.
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

from dataclasses import dataclass

import numpy as np

from repro.dfa.automaton import Dfa
from repro.dfa.minimize import Minimization, canonicalize
from repro.errors import ParseError

__all__ = ["Chunking", "chunk_groups", "chunk_groups_canonical"]


@dataclass(frozen=True)
class Chunking:
    """Geometry of one chunked input."""

    input_bytes: int
    chunk_size: int
    num_chunks: int
    padding: int

    @classmethod
    def of(cls, input_bytes: int, chunk_size: int) -> Chunking:
        """The grid cutting ``input_bytes`` into ``chunk_size`` chunks
        (at least one, the last padded)."""
        num_chunks = max(1, -(-input_bytes // chunk_size))
        return cls(input_bytes=input_bytes, chunk_size=chunk_size,
                   num_chunks=num_chunks,
                   padding=num_chunks * chunk_size - input_bytes)


def chunk_groups(data: np.ndarray, dfa: Dfa,
                 chunk_size: int) -> tuple[np.ndarray, Chunking, Dfa]:
    """Map bytes to symbol groups and reshape into chunks.

    Parameters
    ----------
    data:
        ``(n,)`` uint8 input.
    dfa:
        The automaton; it is extended with a padding group (identity
        transitions, CONTROL emission) used for the tail padding.
    chunk_size:
        Bytes per chunk.

    Returns
    -------
    (groups, chunking, padded_dfa)
        ``groups`` is ``(num_chunks, chunk_size)`` uint8 of symbol-group
        ids (pad positions hold the padding group).
    """
    if data.dtype != np.uint8:
        raise ParseError("input must be a uint8 array")
    if chunk_size <= 0:
        raise ParseError("chunk_size must be positive")
    padded_dfa = dfa.with_padding_group()
    pad_group = padded_dfa.num_groups - 1
    n = data.size
    chunking = Chunking.of(n, chunk_size)
    groups_flat = np.empty(chunking.num_chunks * chunk_size, dtype=np.uint8)
    groups_flat[:n] = dfa.symbol_groups[data]
    groups_flat[n:] = pad_group
    return (groups_flat.reshape(chunking.num_chunks, chunk_size), chunking,
            padded_dfa)


def chunk_groups_canonical(
        data: np.ndarray, dfa: Dfa, chunk_size: int
) -> tuple[np.ndarray, Chunking, Dfa, Minimization]:
    """:func:`chunk_groups` over the canonical minimised automaton.

    The automaton is canonicalised first
    (:func:`repro.dfa.minimize.canonicalize` — cached per process) and
    the chunk grid is built from the canonical ``symbol_groups``, so
    every downstream sweep runs in the smaller canonical state/group
    space: smaller stride tables (often unlocking wider strides) and
    behavioural kernel-cache sharing.  The returned ``Minimization``
    carries the maps back to the source automaton's state space
    (``state_rep``) for consumers that report states to the caller.
    :func:`chunk_groups` keeps the raw automaton (the test oracles'
    path).
    """
    canon = canonicalize(dfa)
    groups, chunking, padded_dfa = chunk_groups(data, canon.dfa, chunk_size)
    return groups, chunking, padded_dfa, canon
