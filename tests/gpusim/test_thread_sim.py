"""Tests for the register-level thread simulation of phase 1 (§4.5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunking import chunk_groups
from repro.reference.core.context import compute_transition_vectors
from repro.dfa import rfc4180_dfa
from repro.dfa.csv import dialect_dfa
from repro.dfa.dialects import Dialect
from repro.errors import SimulationError
from repro.reference.gpusim.thread_sim import GpuThread, simulate_block


class TestGpuThread:
    def test_stv_matches_dfa(self, csv_dfa):
        thread = GpuThread(csv_dfa)
        chunk = b'1941,199.9'
        assert thread.run(chunk) == csv_dfa.transition_vector(chunk)

    def test_resources_accounted(self, csv_dfa):
        thread = GpuThread(csv_dfa)
        thread.run(b"abc")
        res = thread.resources
        assert res.swar_matches == 3
        # 3 bitfield ops per state per symbol.
        assert res.bitfield_ops == 3 * csv_dfa.num_states * 3
        assert res.total_registers > 0

    def test_register_budget_is_tiny(self, csv_dfa):
        """The §4.5 point: the whole thread context is a handful of
        registers (STV + packed table + LU), far under a 255-register
        thread budget."""
        thread = GpuThread(csv_dfa)
        assert thread.resources.total_registers <= 16

    @given(st.binary(max_size=64))
    @settings(max_examples=60)
    def test_property_equivalence(self, chunk):
        dfa = rfc4180_dfa()
        thread = GpuThread(dfa)
        assert thread.run(chunk) == dfa.transition_vector(chunk)

    def test_comment_dialect(self):
        dfa = dialect_dfa(Dialect.csv_with_comments())
        thread = GpuThread(dfa)
        chunk = b'#x",\nab'
        assert thread.run(chunk) == dfa.transition_vector(chunk)


class TestSimulateBlock:
    def test_matches_vectorised_phase1(self, csv_dfa, paper_example):
        chunk_size = 10
        vectors, totals = simulate_block(csv_dfa, paper_example, chunk_size)

        data = np.frombuffer(paper_example, dtype=np.uint8)
        groups, chunking, padded = chunk_groups(data, csv_dfa, chunk_size)
        expected = compute_transition_vectors(groups, padded)
        for i, vector in enumerate(vectors):
            assert vector == tuple(expected[i].tolist()), i

    def test_totals(self, csv_dfa):
        _, totals = simulate_block(csv_dfa, b"abcdef", 3)
        assert totals.swar_matches == 6

    def test_rejects_bad_chunk_size(self, csv_dfa):
        with pytest.raises(SimulationError):
            simulate_block(csv_dfa, b"x", 0)
