"""Symbol-group checks on compressed transition tables (paper §4.5).

:func:`expand_table` undoes :func:`repro.dfa.compression.group_symbols`
(the Table 1 benchmark regroups the expanded table), and
:func:`is_minimal` verifies that a hand-built automaton's grouping is the
coarsest possible.  Tests and the benchmark use them; no parse does.
"""

from __future__ import annotations

import numpy as np

from repro.dfa.automaton import Dfa

__all__ = ["expand_table", "is_minimal"]


def expand_table(dfa: Dfa) -> np.ndarray:
    """Expand a DFA's grouped table back to the full 256-row form."""
    return dfa.transitions[dfa.symbol_groups]


def is_minimal(dfa: Dfa) -> bool:
    """Whether the DFA's grouping is the coarsest possible.

    True when no two of its symbol groups have identical transition *and*
    emission behaviour.  The paper's hand-built tables are minimal; builder
    users may over-split, which is legal but wastes table space.
    """
    signatures = set()
    for g in range(dfa.num_groups):
        key = (dfa.transitions[g].tobytes(), dfa.emissions[:, g].tobytes())
        if key in signatures:
            return False
        signatures.add(key)
    return True
