"""Phase 1 — determining every chunk's parsing context (paper §3.1).

Each chunk (logical thread) simulates one DFA instance per state, recording
where each hypothetical start state ends up: its *state-transition vector*
(STV).  The exclusive prefix scan of the STVs under composition, seeded
with the identity, turns local knowledge into global: entry ``i`` of chunk
``c``'s scanned vector is the state the sequential automaton would be in
when entering chunk ``c``, had the whole input started in state ``i``.
Evaluating the scan at the DFA's real start state gives every chunk its
true start state — no sequential pass, no constraint on the input.  The
scan is reduce-then-walk (:func:`repro.scan.numpy_scan.entering_states`):
blocks of STVs reduce to composites, a walk over the composites gives
each block's entering state, and one state per block is carried through
its chunks.

The batched STV computation iterates over the *chunk-local* byte positions
(a loop of ``chunk_size`` steps) while operating on all chunks at once —
the NumPy translation of "every thread reads its chunk in lock step".
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

import numpy as np

from repro.dfa.automaton import Dfa
from repro.scan.numpy_scan import entering_states

__all__ = [
    "compute_transition_vectors",
    "chunk_start_states",
    "determine_contexts",
]


def compute_transition_vectors(groups: np.ndarray, dfa: Dfa) -> np.ndarray:
    """STVs for all chunks: ``(num_chunks, num_states)`` uint8.

    ``groups`` is the ``(num_chunks, chunk_size)`` symbol-group matrix
    (padding included).  Row ``c`` of the result maps a start state to the
    state after chunk ``c`` — the per-thread phase-1 output.
    """
    if groups.ndim != 2:
        raise ValueError("expected a (num_chunks, chunk_size) matrix")
    num_chunks, chunk_size = groups.shape
    transitions = dfa.transitions  # (num_groups, num_states)
    vectors = np.broadcast_to(
        np.arange(dfa.num_states, dtype=np.uint8),
        (num_chunks, dfa.num_states)).copy()
    for j in range(chunk_size):  # parlint: disable=PPR401 -- per-thread serial depth of paper alg. 1; vectorised over the num_chunks axis
        # All threads advance their |S| DFA instances by one symbol.
        vectors = transitions[groups[:, j, None], vectors]
    return vectors


def chunk_start_states(vectors: np.ndarray, dfa: Dfa) -> np.ndarray:
    """True start state of every chunk, via the composition scan.

    Returns ``(num_chunks,)`` uint8; entry ``c`` is the DFA state entering
    chunk ``c`` when the sequential automaton starts the whole input in
    ``dfa.start_state``.  Only that one start state is carried through
    the chunks, so the scan is ``O(n·|S|)`` work to reduce plus ``O(n)``
    to carry.
    """
    rows = entering_states(vectors, [dfa.start_state])
    return rows[:-1, 0].astype(np.uint8, copy=False)


def determine_contexts(groups: np.ndarray,
                       dfa: Dfa) -> tuple[np.ndarray, np.ndarray]:
    """Phase 1 in one call: (STVs, per-chunk start states)."""
    vectors = compute_transition_vectors(groups, dfa)
    return vectors, chunk_start_states(vectors, dfa)
