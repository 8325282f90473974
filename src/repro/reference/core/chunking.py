"""Variable-length symbol boundaries (paper §4.2), as reference code.

A UTF-8/UTF-16 symbol may cross a chunk boundary.  The thread owning the
symbol's *leading* bytes reads the whole symbol; threads seeing only
trailing bytes skip them.  :func:`utf8_leading_skip` and
:func:`utf16_leading_skip` compute the skip counts from the bit patterns
the paper describes (``0b10XXXXXX`` continuation bytes for UTF-8; low
surrogates ``0xDC00-0xDFFF`` for UTF-16); :class:`SymbolReader` applies
them, and :mod:`repro.reference.core.symbol_parser` parses code points
with it.  The byte-level pipeline never needs them (see
:mod:`repro.core.chunking`).
"""

from __future__ import annotations

# parlint: hot-path -- per-chunk symbol readers; loops need waivers

from typing import Iterator

import numpy as np

from repro.errors import ParseError

__all__ = ["utf8_leading_skip", "utf16_leading_skip", "SymbolReader"]


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
