"""Thread-level simulation of the phase-1 GPU kernel (§3.1 + §4.5).

The vectorised pipeline in :mod:`repro.core` computes state-transition
vectors with whole-array operations.  This module executes the same kernel
the way a *single CUDA thread* would, using exactly the machinery §4.5
describes:

* the thread's state-transition vector lives in an
  :class:`~repro.reference.gpusim.mfira.Mfira` (dynamically indexed registers);
* each symbol is matched to its group with the branchless
  :class:`~repro.reference.gpusim.swar.SwarMatcher`;
* the transition table itself is packed into MFIRAs (one per symbol
  group) when small enough, so a state transition is two BFE/BFI accesses.

It exists to demonstrate — and test — that the paper's register-level
design computes the very same STVs as the vectorised executor, and to
account for the register/instruction budget of a thread
(:class:`ThreadResources`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dfa.automaton import Dfa
from repro.errors import SimulationError
from repro.reference.gpusim.mfira import Mfira
from repro.reference.gpusim.swar import SwarMatcher
from repro.reference.utils.bits import bits_required

__all__ = ["ThreadResources", "GpuThread", "simulate_block"]


@dataclass
class ThreadResources:
    """Register/instruction accounting of one simulated thread."""

    #: 32-bit registers backing the STV MFIRA.
    stv_registers: int = 0
    #: 32-bit registers backing the packed transition table.
    table_registers: int = 0
    #: LU-registers of the SWAR matcher.
    lu_registers: int = 0
    #: BFI/BFE invocations performed.
    bitfield_ops: int = 0
    #: SWAR matches performed.
    swar_matches: int = 0

    @property
    def total_registers(self) -> int:
        return self.stv_registers + self.table_registers \
            + self.lu_registers


class GpuThread:
    """One lightweight parsing thread with in-register context only.

    Parameters
    ----------
    dfa:
        The automaton.  Its per-group transition rows are packed into
        MFIRAs when the state count allows (<= 32 states); otherwise the
        construction fails — exactly the register-pressure constraint that
        motivates symbol-group compression (§4.5).
    """

    def __init__(self, dfa: Dfa):
        self.dfa = dfa
        num_states = dfa.num_states
        if num_states > 32:
            raise SimulationError(
                "a thread cannot hold more than 32 states in registers")
        self.matcher = SwarMatcher(dfa)
        state_bits = bits_required(num_states)

        # The state-transition vector: one slot per hypothetical start
        # state (Figure 3's per-thread DFA instances).
        self.stv = Mfira(capacity=num_states, item_bits=state_bits)
        for state in range(num_states):
            self.stv.set(state, state)

        # The transition table, one MFIRA row per symbol group (Table 1's
        # row-major layout: all transitions of a read symbol adjacent).
        self.table_rows: list[Mfira] = []
        for group in range(dfa.num_groups):
            row = Mfira(capacity=num_states, item_bits=state_bits)
            for state in range(num_states):
                row.set(state, int(dfa.transitions[group, state]))
            self.table_rows.append(row)

        self.resources = ThreadResources(
            stv_registers=self.stv.num_fragments,
            table_registers=sum(r.num_fragments for r in self.table_rows),
            lu_registers=len(self.matcher.lu_registers),
        )

    def consume(self, byte: int) -> None:
        """Advance all DFA instances by one symbol (the §3.1 inner loop)."""
        group = self.matcher.group_of(byte)
        self.resources.swar_matches += 1
        row = self.table_rows[group]
        for state in range(self.dfa.num_states):
            current = self.stv.get(state)
            self.stv.set(state, row.get(current))
            # one BFE for the STV read, one BFE for the table row, one
            # BFI for the STV write
            self.resources.bitfield_ops += 3

    def run(self, chunk: bytes | np.ndarray) -> tuple[int, ...]:
        """Process a chunk; return the resulting state-transition vector."""
        buf = np.frombuffer(bytes(chunk), dtype=np.uint8) \
            if not isinstance(chunk, np.ndarray) else chunk
        for byte in buf:
            self.consume(int(byte))
        return tuple(self.stv.to_list())


def simulate_block(dfa: Dfa, data: bytes,
                   chunk_size: int) -> tuple[list[tuple[int, ...]],
                                             ThreadResources]:
    """Run one thread per chunk over ``data``; return STVs + totals.

    The reference for the vectorised
    :func:`repro.reference.core.context.compute_transition_vectors`
    (tested equal).
    """
    if chunk_size <= 0:
        raise SimulationError("chunk_size must be positive")
    vectors: list[tuple[int, ...]] = []
    totals = ThreadResources()
    for start in range(0, max(len(data), 1), chunk_size):
        thread = GpuThread(dfa)
        vectors.append(thread.run(data[start:start + chunk_size]))
        totals.stv_registers = thread.resources.stv_registers
        totals.table_registers = thread.resources.table_registers
        totals.lu_registers = thread.resources.lu_registers
        totals.bitfield_ops += thread.resources.bitfield_ops
        totals.swar_matches += thread.resources.swar_matches
    return vectors, totals
