"""Massively parallel UTF-8 validation on the ParPaRaw machinery.

Paper §4.2 handles UTF-8 at chunk boundaries; this module goes one step
further and demonstrates that the *whole approach* — express the format as
a DFA, compute per-chunk state-transition vectors, recover every chunk's
context with one composition scan — applies verbatim to a different
problem: validating UTF-8 well-formedness in parallel.

:func:`utf8_validation_dfa` builds the 9-state byte-level automaton
(equivalent to Björn Höhrmann's classic table: states for "expecting N
continuation bytes" plus the E0/ED/F0/F4 special states that exclude
overlong encodings and surrogates), with its 12 byte classes as symbol
groups.  :func:`validate_utf8` then runs the standard ParPaRaw phase 1
over any chunk size and accepts iff the recovered final state is the
start state — bit-for-bit agreement with Python's strict decoder is
property tested.
"""

from __future__ import annotations

import numpy as np

from repro.core.chunking import chunk_groups
from repro.dfa.automaton import Dfa, Emission
from repro.dfa.builder import DfaBuilder
from repro.reference.core.context import compute_transition_vectors
from repro.reference.scan.numpy_scan import scan_transition_vectors

__all__ = ["utf8_validation_dfa", "validate_utf8"]

_D = Emission.DATA


def utf8_validation_dfa() -> Dfa:
    """The RFC 3629 byte-level validation automaton.

    States: ``OK`` (between code points, accepting), ``S1``/``S2``/``S3``
    (1/2/3 continuation bytes outstanding, any value), and the four
    constrained first-continuation states ``E0``/``ED``/``F0``/``F4``
    that reject overlong encodings (E0 80-9F, F0 80-8F), UTF-16
    surrogates (ED A0-BF) and code points beyond U+10FFFF (F4 90-BF).
    """
    b = DfaBuilder()
    b.state("OK", accepting=True)
    b.state("S1")
    b.state("S2")
    b.state("S3")
    b.state("E0")
    b.state("ED")
    b.state("F0")
    b.state("F4")
    b.invalid_state("INV")

    b.group("ASCII", bytes(range(0x00, 0x80)))
    b.group("C_80_8F", bytes(range(0x80, 0x90)))
    b.group("C_90_9F", bytes(range(0x90, 0xA0)))
    b.group("C_A0_BF", bytes(range(0xA0, 0xC0)))
    b.group("L2", bytes(range(0xC2, 0xE0)))
    b.group("E0_LEAD", b"\xe0")
    b.group("L3", bytes(range(0xE1, 0xED)) + b"\xee\xef")
    b.group("ED_LEAD", b"\xed")
    b.group("F0_LEAD", b"\xf0")
    b.group("L4", bytes(range(0xF1, 0xF4)))
    b.group("F4_LEAD", b"\xf4")
    b.group("BAD", b"\xc0\xc1" + bytes(range(0xF5, 0x100)))

    # Between code points: leads dispatch, continuations are malformed.
    b.transition("OK", "ASCII", "OK", _D)
    b.transition("OK", "L2", "S1", _D)
    b.transition("OK", "E0_LEAD", "E0", _D)
    b.transition("OK", "L3", "S2", _D)
    b.transition("OK", "ED_LEAD", "ED", _D)
    b.transition("OK", "F0_LEAD", "F0", _D)
    b.transition("OK", "L4", "S3", _D)
    b.transition("OK", "F4_LEAD", "F4", _D)

    # Unconstrained continuation chains.
    for group in ("C_80_8F", "C_90_9F", "C_A0_BF"):
        b.transition("S1", group, "OK", _D)
        b.transition("S2", group, "S1", _D)
        b.transition("S3", group, "S2", _D)

    # Constrained first continuations.
    b.transition("E0", "C_A0_BF", "S1", _D)          # no overlong 3-byte
    b.transition("ED", "C_80_8F", "S1", _D)          # no surrogates
    b.transition("ED", "C_90_9F", "S1", _D)
    b.transition("F0", "C_90_9F", "S2", _D)          # no overlong 4-byte
    b.transition("F0", "C_A0_BF", "S2", _D)
    b.transition("F4", "C_80_8F", "S2", _D)          # <= U+10FFFF

    # Everything unspecified falls into INV via the builder default.
    b.start("OK")
    return b.build()


def validate_utf8(data: bytes | np.ndarray,
                  chunk_size: int = 31) -> bool:
    """Validate UTF-8 well-formedness, data-parallel.

    Runs ParPaRaw phase 1 — per-chunk state-transition vectors + the
    composition scan — over the validation automaton, exactly like the
    parsing pipeline; truncated inputs (ending mid code point) and any
    malformed byte are rejected.

    >>> validate_utf8("grüße 😀".encode("utf-8"))
    True
    >>> validate_utf8(b"\\xc3")      # truncated two-byte sequence
    False
    >>> validate_utf8(b"\\xed\\xa0\\x80")  # UTF-16 surrogate
    False
    """
    dfa = utf8_validation_dfa()
    buf = np.frombuffer(bytes(data), dtype=np.uint8) \
        if not isinstance(data, np.ndarray) else data
    groups, chunking, padded = chunk_groups(buf, dfa, chunk_size)
    vectors = compute_transition_vectors(groups, padded)
    final = scan_transition_vectors(vectors, exclusive=False)
    end_state = int(final[-1, dfa.start_state])
    return dfa.is_accepting(end_state)
