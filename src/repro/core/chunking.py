"""Input chunking and variable-length symbol boundaries.

ParPaRaw splits the input into chunks of equal size, one per logical thread
(paper §3).  :func:`chunk_groups` produces the ``(num_chunks, chunk_size)``
symbol-group matrix the data-parallel kernels operate on, padding the final
partial chunk with a dedicated no-op group.

Variable-length encodings (paper §4.2): a UTF-8/UTF-16 symbol may cross a
chunk boundary.  The thread owning the symbol's *leading* bytes reads the
whole symbol; threads seeing only trailing bytes skip them.
:func:`utf8_leading_skip` and :func:`utf16_leading_skip` compute the skip
counts from the bit patterns the paper describes (``0b10XXXXXX``
continuation bytes for UTF-8; low surrogates ``0xDC00-0xDFFF`` for UTF-16).

For *byte-level* automata over ASCII-compatible encodings (all dialects in
:mod:`repro.dfa.dialects`: delimiters/quotes are ASCII and UTF-8
continuation bytes can never collide with them), chunk boundaries need no
adjustment — continuation bytes fall into the catch-all group and emit
DATA, which is exactly right.  The skip functions are used by the
symbol-level reader (:class:`SymbolReader`) and its tests.
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.dfa.automaton import Dfa
from repro.dfa.minimize import Minimization, canonicalize
from repro.errors import ParseError

__all__ = [
    "Chunking",
    "chunk_groups",
    "chunk_groups_canonical",
    "utf8_leading_skip",
    "utf16_leading_skip",
    "SymbolReader",
]


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
        data: np.ndarray, dfa: Dfa, chunk_size: int, minimize: bool = True
) -> tuple[np.ndarray, Chunking, Dfa, Minimization | None]:
    """:func:`chunk_groups` over the canonical minimised automaton.

    When ``minimize`` is set, the automaton is canonicalised first
    (:func:`repro.dfa.minimize.canonicalize` — cached per process) and
    the chunk grid is built from the canonical ``symbol_groups``, so
    every downstream sweep runs in the smaller canonical state/group
    space: smaller stride tables (often unlocking wider strides) and
    behavioural kernel-cache sharing.  The returned ``Minimization``
    carries the maps back to the source automaton's state space
    (``state_rep``) for consumers that report states to the caller —
    parses are bit-identical either way.  ``minimize=False`` degrades to
    plain :func:`chunk_groups` with a ``None`` map.
    """
    if not minimize:
        groups, chunking, padded_dfa = chunk_groups(data, dfa, chunk_size)
        return groups, chunking, padded_dfa, None
    canon = canonicalize(dfa)
    groups, chunking, padded_dfa = chunk_groups(data, canon.dfa, chunk_size)
    return groups, chunking, padded_dfa, canon


# -- variable-length symbol boundaries (paper §4.2) -------------------------

def utf8_leading_skip(chunk: bytes | np.ndarray) -> int:
    """Number of leading UTF-8 continuation bytes of a chunk.

    Continuation bytes carry the prefix ``0b10XXXXXX``; a thread skips them
    because the previous chunk's owner consumed the whole code point.

    >>> utf8_leading_skip("é".encode("utf-8")[1:] + b"abc")
    1
    """
    buf = np.frombuffer(bytes(chunk), dtype=np.uint8) \
        if not isinstance(chunk, np.ndarray) else chunk
    skip = 0
    for byte in buf[:3]:  # a code point has at most 3 continuation bytes  # parlint: disable=PPR401 -- at most 3 continuation bytes per code point
        if (int(byte) & 0xC0) == 0x80:
            skip += 1
        else:
            break
    return skip


def utf16_leading_skip(chunk: bytes | np.ndarray,
                       little_endian: bool = True) -> int:
    """Bytes to skip at a UTF-16 chunk boundary (0 or 2).

    A chunk starting with a *low surrogate* (0xDC00-0xDFFF) sees only the
    trailing half of a 4-byte code point and skips those two bytes.  Chunk
    sizes must be even (an integer multiple of the 2-byte code unit), per
    the paper's fixed-size-symbol rule.
    """
    buf = bytes(chunk)
    if len(buf) < 2:
        return 0
    if little_endian:
        unit = buf[0] | (buf[1] << 8)
    else:
        unit = (buf[0] << 8) | buf[1]
    return 2 if 0xDC00 <= unit <= 0xDFFF else 0


class SymbolReader:
    """Iterate decoded code points of a chunk, honouring boundary rules.

    Mirrors the per-thread reading discipline of paper §4.2: skip leading
    trailing-bytes, and *continue past the chunk's end* to finish a code
    point whose leading byte lies inside the chunk.
    """

    def __init__(self, data: bytes, chunk_start: int, chunk_size: int,
                 encoding: str = "utf-8"):
        if encoding not in ("utf-8", "utf-16-le"):
            raise ParseError(f"unsupported encoding {encoding!r}")
        self._data = data
        self._start = chunk_start
        self._size = chunk_size
        self._encoding = encoding

    def __iter__(self) -> Iterator[int]:
        data = self._data
        end = min(self._start + self._size, len(data))
        if self._encoding == "utf-8":
            pos = self._start + utf8_leading_skip(data[self._start:end])
            while pos < end:  # parlint: disable=PPR401 -- scalar decoder for the symbol-iterator debug API, not the vectorised parse path
                lead = data[pos]
                if lead < 0x80:
                    length = 1
                elif lead >> 5 == 0b110:
                    length = 2
                elif lead >> 4 == 0b1110:
                    length = 3
                elif lead >> 3 == 0b11110:
                    length = 4
                else:
                    raise ParseError(
                        f"invalid UTF-8 lead byte {lead:#04x} at {pos}")
                raw = data[pos:pos + length]
                if len(raw) < length:
                    raise ParseError("truncated UTF-8 sequence at input end")
                yield ord(raw.decode("utf-8"))
                pos += length
        else:
            pos = self._start + utf16_leading_skip(data[self._start:end])
            while pos < end:  # parlint: disable=PPR401 -- scalar decoder for the symbol-iterator debug API, not the vectorised parse path
                if pos + 2 > len(data):
                    raise ParseError("truncated UTF-16 code unit")
                unit = data[pos] | (data[pos + 1] << 8)
                if 0xD800 <= unit <= 0xDBFF:  # high surrogate
                    if pos + 4 > len(data):
                        raise ParseError("truncated UTF-16 surrogate pair")
                    low = data[pos + 2] | (data[pos + 3] << 8)
                    if not 0xDC00 <= low <= 0xDFFF:
                        raise ParseError("unpaired UTF-16 high surrogate")
                    yield 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    pos += 4
                elif 0xDC00 <= unit <= 0xDFFF:
                    raise ParseError("unpaired UTF-16 low surrogate")
                else:
                    yield unit
                    pos += 2
