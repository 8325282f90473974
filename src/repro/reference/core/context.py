"""The unit-stride STV sweep of phase 1 (paper §3.1), as a test oracle.

Each chunk simulates one DFA instance per state, one symbol per step,
recording where each hypothetical start state ends up.  The kernel plans
of :mod:`repro.kernels.strided` compute the same state-transition
vectors at every stride and are tested bit-identical to
:func:`compute_transition_vectors`.
"""

from __future__ import annotations

# parlint: hot-path -- per-chunk oracle sweeps; loops need waivers

import numpy as np

from repro.core.context import chunk_start_states
from repro.dfa.automaton import Dfa

__all__ = ["compute_transition_vectors", "determine_contexts"]


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


def determine_contexts(groups: np.ndarray,
                       dfa: Dfa) -> tuple[np.ndarray, np.ndarray]:
    """Phase 1 in one call: (STVs, per-chunk start states)."""
    vectors = compute_transition_vectors(groups, dfa)
    return vectors, chunk_start_states(vectors, dfa)
