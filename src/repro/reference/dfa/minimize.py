"""Sequential Hopcroft refinement, the oracle of DFA minimisation.

:func:`repro.dfa.minimize.parallel_partition` computes the coarsest
Mealy-consistent state partition with data-parallel rounds;
:func:`hopcroft_partition` computes the same partition with the classic
splitter worklist (at the <=32-state scale of dialect automata both
halves of a split are enqueued rather than only the smaller one — the
asymptotic trick matters at millions of states, not here), and
:func:`same_partition` compares the two label vectors.
:func:`is_canonical` checks that an automaton is its own canonical form
(:func:`~repro.dfa.minimize.canonicalize` is idempotent).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.dfa.automaton import Dfa
from repro.dfa.minimize import _dense_relabel, _seed_labels, canonicalize

__all__ = ["hopcroft_partition", "same_partition", "is_canonical"]


def hopcroft_partition(dfa: Dfa) -> np.ndarray:
    """Coarsest Mealy-consistent partition, splitter-worklist refinement.

    The sequential reference the parallel formulation is tested against.
    Returns ``(num_states,)`` dense class labels describing the same
    partition as :func:`~repro.dfa.minimize.parallel_partition` (label
    values may differ; compare with :func:`same_partition`).
    """
    num_states, num_groups = dfa.num_states, dfa.num_groups
    preimage: list[list[list[int]]] = [
        [[] for _ in range(num_states)] for _ in range(num_groups)]
    for g in range(num_groups):
        for source, target in enumerate(dfa.transitions[g]):
            preimage[g][int(target)].append(source)

    seed = _seed_labels(dfa)
    blocks: dict[int, set[int]] = {}
    for state, label in enumerate(seed):
        blocks.setdefault(int(label), set()).add(state)
    partition = list(blocks.values())
    work: deque = deque(
        (frozenset(block), g) for block in partition
        for g in range(num_groups))
    while work:  # parlint: disable=PPR401 -- splitter worklist over <= 32-state dialect automata; configuration-time only
        splitter, g = work.popleft()
        hits = {source for target in splitter for source in
                preimage[g][target]}
        refined: list[set[int]] = []
        for block in partition:
            inside = block & hits
            outside = block - hits
            if inside and outside:
                refined.extend((inside, outside))
                for gg in range(num_groups):
                    work.append((frozenset(inside), gg))
                    work.append((frozenset(outside), gg))
            else:
                refined.append(block)
        partition = refined

    labels = np.empty(num_states, dtype=np.int64)
    for index, block in enumerate(sorted(partition, key=min)):
        for state in block:
            labels[state] = index
    return labels


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two label vectors describe the same partition."""
    if a.shape != b.shape:
        return False
    pairs = np.column_stack([a, b])
    return int(_dense_relabel(pairs).max()) == max(int(a.max()),
                                                   int(b.max()))


def is_canonical(dfa: Dfa) -> bool:
    """Whether ``dfa`` is its own canonical form (tables and maps; the
    human-readable names are not compared)."""
    canonical = canonicalize(dfa).dfa
    return (canonical.num_states == dfa.num_states
            and canonical.num_groups == dfa.num_groups
            and canonical.start_state == dfa.start_state
            and canonical.invalid_state == dfa.invalid_state
            and canonical.accepting == dfa.accepting
            and np.array_equal(canonical.symbol_groups, dfa.symbol_groups)
            and np.array_equal(canonical.transitions, dfa.transitions)
            and np.array_equal(canonical.emissions, dfa.emissions))
