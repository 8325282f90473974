"""State-transition vector algebra (paper §3.1).

A chunk's *state-transition vector* (STV) summarises the chunk's effect on
the automaton: entry ``i`` is the state reached after reading the chunk
having started in state ``i``.  STVs form a monoid under composition
``(a ∘ b)[i] = b[a[i]]`` — apply chunk A, then chunk B — with the identity
mapping each state to itself.  The exclusive prefix scan of per-chunk STVs
under this operation yields, for every chunk, the state the sequential
automaton would be in when *entering* that chunk (for every hypothetical
global start state).

This module provides the scalar algebra; the vectorised counterpart lives
in :mod:`repro.scan.numpy_scan` and the batched STV computation in
:mod:`repro.kernels.strided`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dfa.automaton import Dfa, Emission

__all__ = ["identity_vector", "compose", "transition_vector", "simulate"]


def identity_vector(num_states: int) -> tuple[int, ...]:
    """The identity STV: every state maps to itself."""
    return tuple(range(num_states))


def compose(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """Compose two STVs: apply ``first``, then ``second``.

    >>> compose((1, 0, 2), (2, 2, 0))
    (2, 2, 0)
    """
    if len(first) != len(second):
        raise ValueError("cannot compose vectors of different lengths")
    return tuple(second[s] for s in first)


def transition_vector(dfa: Dfa, chunk: bytes | np.ndarray) -> tuple[int, ...]:
    """Compute one chunk's STV by simulating a DFA instance per state.

    This is the per-thread phase-1 work of the paper: the thread reads its
    chunk once, transitioning all ``|S|`` DFA instances in lock step.
    """
    return dfa.transition_vector(chunk)


def simulate(dfa: Dfa, data: bytes | np.ndarray,
             start_state: int | None = None) -> tuple[int, list[Emission]]:
    """Sequential reference simulation (delegates to the DFA)."""
    return dfa.simulate(data, start_state)
