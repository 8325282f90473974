"""Tests for phase 1: STV computation and start-state recovery (§3.1).

The central invariant: for ANY input and ANY chunk size, the scanned start
state of chunk ``c`` equals the state a sequential DFA simulation is in
when it reaches chunk ``c``'s first byte.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.chunking import chunk_groups
from repro.core.context import chunk_start_states
from repro.reference.core.context import (
    compute_transition_vectors,
    determine_contexts,
)
from repro.dfa.csv import dialect_dfa
from repro.dfa.dialects import Dialect

csv_like = st.text(
    alphabet=st.sampled_from(list('abc",\n#')), max_size=120
).map(lambda s: s.encode())


def sequential_states_at_chunk_starts(dfa, data: bytes,
                                      chunk_size: int) -> list[int]:
    state = dfa.start_state
    states = []
    for i, byte in enumerate(data):
        if i % chunk_size == 0:
            states.append(state)
        state, _ = dfa.step(state, byte)
    if not data:
        states.append(dfa.start_state)
    return states


class TestTransitionVectors:
    def test_rows_match_scalar_stv(self, csv_dfa):
        data = np.frombuffer(b'1941,199.99,"Bookcase"\n', dtype=np.uint8)
        groups, chunking, padded = chunk_groups(data, csv_dfa, 5)
        vectors = compute_transition_vectors(groups, padded)
        for c in range(chunking.num_chunks):
            lo, hi = c * 5, min((c + 1) * 5, data.size)
            expected = csv_dfa.transition_vector(data[lo:hi])
            assert tuple(vectors[c].tolist()) == expected, c

    def test_padding_is_noop(self, csv_dfa):
        data = np.frombuffer(b"abc", dtype=np.uint8)
        groups, _, padded = chunk_groups(data, csv_dfa, 8)
        vectors = compute_transition_vectors(groups, padded)
        assert tuple(vectors[0].tolist()) == csv_dfa.transition_vector(b"abc")


class TestStartStates:
    @given(csv_like, st.integers(min_value=1, max_value=17))
    @settings(max_examples=150)
    def test_matches_sequential(self, data, chunk_size):
        dfa = dialect_dfa(Dialect(strip_carriage_return=False))
        arr = np.frombuffer(data, dtype=np.uint8)
        groups, chunking, padded = chunk_groups(arr, dfa, chunk_size)
        _, starts = determine_contexts(groups, padded)
        expected = sequential_states_at_chunk_starts(dfa, data, chunk_size)
        assert starts[:len(expected)].tolist() == expected

    @given(csv_like, st.integers(min_value=1, max_value=17))
    @settings(max_examples=80)
    def test_comment_dialect(self, data, chunk_size):
        dfa = dialect_dfa(Dialect(comment=b"#",
                                  strip_carriage_return=False))
        arr = np.frombuffer(data, dtype=np.uint8)
        groups, chunking, padded = chunk_groups(arr, dfa, chunk_size)
        _, starts = determine_contexts(groups, padded)
        expected = sequential_states_at_chunk_starts(dfa, data, chunk_size)
        assert starts[:len(expected)].tolist() == expected

    def test_figure3_shape(self, csv_dfa):
        """Figure 3: six threads, per-thread STVs, scan -> start states."""
        data = np.frombuffer(
            b'1941,199.99,"Bookcase"\n1938,19.99,"Frame\n'
            b'""Ribba"", black"\n', dtype=np.uint8)
        chunk = 10
        groups, chunking, padded = chunk_groups(data, csv_dfa, chunk)
        vectors, starts = determine_contexts(groups, padded)
        assert vectors.shape[1] == 6
        # The first chunk always starts in the DFA's start state (EOR).
        assert starts[0] == csv_dfa.start_state
        # Chunk 3 starts inside the quoted "Bookcase" region? — verify
        # against sequential simulation instead of hand counting.
        expected = sequential_states_at_chunk_starts(csv_dfa,
                                                     data.tobytes(), chunk)
        assert starts.tolist()[:len(expected)] == expected
