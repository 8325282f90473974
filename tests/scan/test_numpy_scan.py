"""Tests for the vectorised scans against their scalar references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.scan import numpy_scan
from repro.reference.scan.hillis_steele import hillis_steele_scan
from repro.reference.scan.numpy_scan import (
    scan_column_offsets,
    scan_transition_vectors,
)
from repro.scan.numpy_scan import (
    entering_states,
    exclusive_sum,
    inclusive_sum,
    scan_depth,
)
from repro.reference.scan.operators import (
    ColumnOffset,
    ColumnOffsetMonoid,
    OffsetKind,
    TransitionComposeMonoid,
)
from repro.reference.scan.sequential import (exclusive_scan,
                                            inclusive_scan, reduce)

NUM_STATES = 6


class TestSums:
    def test_exclusive_example(self):
        assert exclusive_sum(np.array([3, 5, 1, 2])).tolist() == [0, 3, 8, 9]

    def test_empty(self):
        assert exclusive_sum(np.array([], dtype=np.int64)).size == 0

    @given(hnp.arrays(np.int32, st.integers(0, 100),
                      elements=st.integers(-1000, 1000)))
    def test_matches_python(self, values):
        expected = []
        acc = 0
        for v in values:
            expected.append(acc)
            acc += int(v)
        assert exclusive_sum(values).tolist() == expected

    def test_inclusive_int64_no_overflow(self):
        # Byte offsets must not wrap in int32.
        values = np.full(10, 2 ** 30, dtype=np.int64)
        assert int(inclusive_sum(values)[-1]) == 10 * 2 ** 30


vector_arrays = hnp.arrays(
    np.uint8, st.tuples(st.integers(0, 40), st.just(NUM_STATES)),
    elements=st.integers(0, NUM_STATES - 1))


class TestScanTransitionVectors:
    @given(vector_arrays)
    def test_matches_scalar_exclusive(self, vectors):
        m = TransitionComposeMonoid(NUM_STATES)
        rows = [tuple(int(x) for x in row) for row in vectors]
        expected = exclusive_scan(rows, m)
        out = scan_transition_vectors(vectors, exclusive=True)
        assert [tuple(r) for r in out.tolist()] == expected

    @given(vector_arrays)
    def test_matches_scalar_inclusive(self, vectors):
        m = TransitionComposeMonoid(NUM_STATES)
        rows = [tuple(int(x) for x in row) for row in vectors]
        expected = inclusive_scan(rows, m)
        out = scan_transition_vectors(vectors, exclusive=False)
        assert [tuple(r) for r in out.tolist()] == expected

    def test_first_row_is_identity(self):
        vectors = np.array([[3, 2, 1, 0, 4, 5]] * 4, dtype=np.uint8)
        out = scan_transition_vectors(vectors)
        assert out[0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            scan_transition_vectors(np.zeros(5, dtype=np.uint8))


BLOCK = numpy_scan._BLOCK
#: Chunk counts around the block edges of the reduce-then-walk scan.
EDGE_LENGTHS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 5)


@st.composite
def stv_cases(draw):
    """``(vectors, starts)``: uint8 STVs over 1..8 states and start states.

    Most rows are permutations, so prefix compositions stay far from
    constant and every start state follows its own path.
    """
    num_states = draw(st.integers(1, 8))
    n = draw(st.one_of(st.sampled_from(EDGE_LENGTHS),
                       st.integers(0, 3 * BLOCK + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vectors = rng.integers(0, num_states, (n, num_states), dtype=np.uint8)
    for row in np.flatnonzero(rng.random(n) < 0.9):
        vectors[row] = rng.permutation(num_states)
    if draw(st.booleans()):
        starts = [draw(st.integers(0, num_states - 1))]
    else:
        starts = list(range(num_states))
    return vectors, starts


class TestEnteringStates:
    @given(stv_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_scans(self, case):
        vectors, starts = case
        m = TransitionComposeMonoid(vectors.shape[1])
        items = [tuple(int(x) for x in row) for row in vectors]
        expected = exclusive_scan(items, m)
        assert hillis_steele_scan(items, m, exclusive=True) == expected
        total = reduce(items, m)
        rows = entering_states(vectors, starts)
        assert rows.dtype == np.uint8
        assert rows.shape == (len(items) + 1, len(starts))
        assert rows[:-1].tolist() == [[prefix[s] for s in starts]
                                      for prefix in expected]
        assert rows[-1].tolist() == [total[s] for s in starts]

    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_non_contiguous_vectors(self, n):
        rng = np.random.default_rng(n)
        wide = rng.integers(0, 4, (2 * n, 7), dtype=np.uint8)
        vectors = wide[::2, 1:5]
        assert not vectors.flags.c_contiguous or n <= 1
        expected = entering_states(np.ascontiguousarray(vectors),
                                   np.arange(4))
        assert np.array_equal(entering_states(vectors, np.arange(4)),
                              expected)
        assert np.array_equal(scan_transition_vectors(vectors),
                              expected[:-1])

    def test_empty_input_is_the_start_states(self):
        rows = entering_states(np.zeros((0, 3), dtype=np.uint8), [2, 0])
        assert rows.tolist() == [[2, 0]]

    def test_scan_depth(self):
        assert scan_depth(0) == 0
        assert scan_depth(1) == 2 * BLOCK + 1
        assert scan_depth(BLOCK) == 2 * BLOCK + 1
        assert scan_depth(BLOCK + 1) == 2 * BLOCK + 2


class TestScanColumnOffsets:
    @given(hnp.arrays(np.bool_, st.integers(0, 50)),
           hnp.arrays(np.int64, st.integers(0, 50),
                      elements=st.integers(0, 20)))
    def test_matches_scalar(self, kinds, values):
        n = min(len(kinds), len(values))
        kinds, values = kinds[:n], values[:n]
        m = ColumnOffsetMonoid()
        items = [ColumnOffset(OffsetKind.ABSOLUTE if k
                              else OffsetKind.RELATIVE, int(v))
                 for k, v in zip(kinds, values)]
        expected = exclusive_scan(items, m)
        out_kinds, out_values = scan_column_offsets(kinds, values)
        assert out_values.tolist() == [o.value for o in expected]
        assert out_kinds.tolist() == [o.is_absolute for o in expected]

    def test_figure4(self):
        kinds = np.array([False, False, True, False, False, False])
        values = np.array([1, 1, 0, 1, 0, 0])
        _, entering = scan_column_offsets(kinds, values)
        assert entering.tolist() == [0, 1, 2, 0, 1, 1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scan_column_offsets(np.array([True]), np.array([1, 2]))
