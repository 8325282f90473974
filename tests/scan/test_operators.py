"""Tests for the scan monoids: identity and associativity laws.

Every parallel scan algorithm in the library assumes associativity; these
property tests pin the law down for each operator — most importantly the
two non-commutative ones the paper introduces (STV composition and the
rel/abs column offset).
"""

import pytest
from hypothesis import given, strategies as st

from repro.reference.scan.operators import (
    ColumnOffset,
    ColumnOffsetMonoid,
    MaxMonoid,
    MinMonoid,
    OffsetKind,
    SumMonoid,
    TransitionComposeMonoid,
)

NUM_STATES = 6

vectors = st.lists(st.integers(min_value=0, max_value=NUM_STATES - 1),
                   min_size=NUM_STATES, max_size=NUM_STATES).map(tuple)

offsets = st.builds(
    ColumnOffset,
    st.sampled_from([OffsetKind.RELATIVE, OffsetKind.ABSOLUTE]),
    st.integers(min_value=0, max_value=50))


class TestSumMonoid:
    @given(st.integers(), st.integers(), st.integers())
    def test_associative(self, a, b, c):
        m = SumMonoid()
        assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))

    @given(st.integers())
    def test_identity(self, a):
        m = SumMonoid()
        assert m.combine(m.identity(), a) == a
        assert m.combine(a, m.identity()) == a


class TestMinMaxMonoids:
    @given(st.integers(min_value=-10 ** 9, max_value=10 ** 9))
    def test_max_identity(self, a):
        m = MaxMonoid()
        assert m.combine(m.identity(), a) == a

    @given(st.integers(min_value=-10 ** 9, max_value=10 ** 9))
    def test_min_identity(self, a):
        m = MinMonoid()
        assert m.combine(m.identity(), a) == a

    @given(st.integers(), st.integers(), st.integers())
    def test_max_associative(self, a, b, c):
        m = MaxMonoid()
        assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))


class TestTransitionCompose:
    @given(vectors, vectors, vectors)
    def test_associative(self, a, b, c):
        m = TransitionComposeMonoid(NUM_STATES)
        assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))

    @given(vectors)
    def test_identity(self, a):
        m = TransitionComposeMonoid(NUM_STATES)
        assert m.combine(m.identity(), a) == a
        assert m.combine(a, m.identity()) == a

    def test_paper_semantics(self):
        # (a ∘ b)[i] = b[a[i]]: start in i, apply chunk a, then chunk b.
        m = TransitionComposeMonoid(3)
        a = (1, 2, 0)
        b = (2, 0, 1)
        assert m.combine(a, b) == (b[1], b[2], b[0])

    def test_not_commutative(self):
        m = TransitionComposeMonoid(3)
        a = (1, 1, 1)
        b = (2, 0, 0)
        assert m.combine(a, b) != m.combine(b, a)

    def test_rejects_wrong_length(self):
        m = TransitionComposeMonoid(3)
        with pytest.raises(ValueError):
            m.combine((0, 1), (0, 1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TransitionComposeMonoid(0)


class TestColumnOffsetMonoid:
    @given(offsets, offsets, offsets)
    def test_associative(self, a, b, c):
        m = ColumnOffsetMonoid()
        assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))

    @given(offsets)
    def test_identity(self, a):
        m = ColumnOffsetMonoid()
        assert m.combine(m.identity(), a) == a
        assert m.combine(a, m.identity()) == a

    def test_absolute_right_wins(self):
        m = ColumnOffsetMonoid()
        result = m.combine(ColumnOffset.relative(5),
                           ColumnOffset.absolute(2))
        assert result == ColumnOffset.absolute(2)

    def test_relative_right_accumulates(self):
        m = ColumnOffsetMonoid()
        result = m.combine(ColumnOffset.absolute(3),
                           ColumnOffset.relative(4))
        assert result == ColumnOffset.absolute(7)

    def test_figure4_example(self):
        # Figure 4: offsets rel1, rel1, abs0, rel1, rel0, rel0 scan to
        # entering offsets 0, 1, 2, 0, 1, 1.
        m = ColumnOffsetMonoid()
        own = [ColumnOffset.relative(1), ColumnOffset.relative(1),
               ColumnOffset.absolute(0), ColumnOffset.relative(1),
               ColumnOffset.relative(0), ColumnOffset.relative(0)]
        acc = m.identity()
        entering = []
        for value in own:
            entering.append(acc.value)
            acc = m.combine(acc, value)
        assert entering == [0, 1, 2, 0, 1, 1]
