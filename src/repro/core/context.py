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

The STVs themselves come from the kernel plans of
:mod:`repro.kernels.strided`; the unit-stride sweep they are tested
against, a loop of ``chunk_size`` steps over all chunks at once (the
NumPy translation of "every thread reads its chunk in lock step"), is
:func:`repro.reference.core.context.compute_transition_vectors`.
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

import numpy as np

from repro.dfa.automaton import Dfa
from repro.scan.numpy_scan import entering_states

__all__ = ["chunk_start_states"]


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
