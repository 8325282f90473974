"""Vectorised scans only the oracles use.

* :func:`scan_transition_vectors` — the full STV scan,
  :func:`~repro.scan.numpy_scan.entering_states` from every state;
* :func:`scan_column_offsets` — ``(kind, value)`` column-offset pairs
  scanned under the rel/abs operator with Hillis–Steele doubling — paper
  §3.2, the cross-chunk scan of the chunked tagger
  (:mod:`repro.reference.core.offsets`).
"""

from __future__ import annotations

# parlint: hot-path -- vectorised oracle scans; loops need waivers

import numpy as np

from repro.scan.numpy_scan import entering_states

__all__ = ["scan_transition_vectors", "scan_column_offsets"]


def scan_transition_vectors(vectors: np.ndarray,
                            exclusive: bool = True) -> np.ndarray:
    """Scan an ``(n, S)`` array of state-transition vectors by composition.

    :func:`entering_states` from every state at once.

    Parameters
    ----------
    vectors:
        ``(n, S)`` integer array; row ``c`` maps start state ``i`` to the
        end state after chunk ``c``.
    exclusive:
        If true (default), row ``c`` of the result maps a global start state
        to the state *entering* chunk ``c`` (identity row prepended).

    Returns
    -------
    np.ndarray
        ``(n, S)`` scanned array.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError("expected an (n_chunks, num_states) array")
    rows = entering_states(vectors, np.arange(vectors.shape[1]))
    return rows[:-1] if exclusive else rows[1:]


def scan_column_offsets(kinds: np.ndarray, values: np.ndarray,
                        exclusive: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Scan rel/abs column offsets (paper §3.2) across chunks.

    Parameters
    ----------
    kinds:
        ``(n,)`` boolean array; True where the chunk's offset is *absolute*
        (the chunk contains a record delimiter).
    values:
        ``(n,)`` integer offsets (field-delimiter counts).
    exclusive:
        If true (default), entry ``c`` gives the column offset *entering*
        chunk ``c``; the seed is ``relative(0)``.

    Returns
    -------
    (np.ndarray, np.ndarray)
        Scanned ``(kinds, values)`` pair.  After an exclusive scan over an
        input whose first chunk starts at a record boundary, every entry
        reachable from an absolute offset is absolute.
    """
    kinds = np.asarray(kinds, dtype=bool)
    values = np.asarray(values, dtype=np.int64)
    if kinds.shape != values.shape or kinds.ndim != 1:
        raise ValueError("kinds and values must be equal-length 1-D arrays")
    n = len(kinds)
    if n == 0:
        return kinds.copy(), values.copy()
    acc_kind = kinds.copy()
    acc_value = values.copy()
    offset = 1
    while offset < n:  # parlint: disable=PPR401 -- ceil(log2 n) doubling sweeps, vectorised over every lane
        left_kind = acc_kind[:-offset]
        left_value = acc_value[:-offset]
        right_kind = acc_kind[offset:]
        right_value = acc_value[offset:]
        # a ⊕ b: absolute right operand wins outright; relative right
        # operand adds onto the left operand and inherits its kind.
        new_kind = np.where(right_kind, True, left_kind)
        new_value = np.where(right_kind, right_value,
                             left_value + right_value)
        acc_kind = acc_kind.copy()
        acc_value = acc_value.copy()
        acc_kind[offset:] = new_kind
        acc_value[offset:] = new_value
        offset *= 2
    if not exclusive:
        return acc_kind, acc_value
    out_kind = np.empty_like(acc_kind)
    out_value = np.empty_like(acc_value)
    out_kind[0] = False
    out_value[0] = 0
    out_kind[1:] = acc_kind[:-1]
    out_value[1:] = acc_value[:-1]
    return out_kind, out_value
