"""Transition-table compression via symbol groups (paper §4.5).

The raw transition table of a byte-level DFA has 256 symbol rows.  Since
delimiter-separated formats distinguish only a handful of symbols, all byte
values with identical column behaviour collapse into *symbol groups*; the
compressed table has one row per group (the paper's Table 1 shows the
four-group RFC 4180 table).  A small table fits into registers / shared
memory, which is what makes the per-thread multi-DFA simulation viable on a
GPU.

:func:`group_symbols` performs the collapse for an arbitrary 256-row table
and compresses user-supplied tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dfa.automaton import NUM_BYTE_VALUES
from repro.errors import DfaError

__all__ = ["CompressedTable", "group_symbols"]


@dataclass(frozen=True)
class CompressedTable:
    """A symbol-grouped transition table.

    Attributes
    ----------
    symbol_groups:
        ``(256,)`` byte-value -> group map.
    transitions:
        ``(num_groups, num_states)`` next-state table.
    """

    symbol_groups: np.ndarray
    transitions: np.ndarray

    @property
    def num_groups(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_states(self) -> int:
        return self.transitions.shape[1]


def group_symbols(full_table: np.ndarray) -> CompressedTable:
    """Collapse identical rows of a 256-row transition table.

    Parameters
    ----------
    full_table:
        ``(256, num_states)`` array; row ``b`` gives the next state for each
        current state when byte ``b`` is read.

    Returns
    -------
    CompressedTable
        Groups numbered in order of first appearance, so the construction is
        deterministic.
    """
    if full_table.ndim != 2 or full_table.shape[0] != NUM_BYTE_VALUES:
        raise DfaError("expected a (256, num_states) table")
    groups = np.empty(NUM_BYTE_VALUES, dtype=np.uint8)
    rows: list[np.ndarray] = []
    seen: dict[bytes, int] = {}
    for byte in range(NUM_BYTE_VALUES):
        key = full_table[byte].tobytes()
        idx = seen.get(key)
        if idx is None:
            idx = len(rows)
            if idx > 255:
                raise DfaError("more than 256 distinct symbol groups")
            seen[key] = idx
            rows.append(full_table[byte].copy())
        groups[byte] = idx
    return CompressedTable(symbol_groups=groups,
                           transitions=np.stack(rows).astype(full_table.dtype))
