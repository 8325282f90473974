"""Tests for the multi-fragment in-register array (Figure 8)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CapacityError
from repro.reference.gpusim.mfira import Mfira


class TestFigure8Geometry:
    """The paper's worked example: 10 items of 5 bits."""

    def test_parameters(self):
        array = Mfira(capacity=10, item_bits=5)
        assert array.available_bits == 3      # floor(32 / 10)
        assert array.fragment_bits == 2       # 2^floor(log2 3)
        assert array.num_fragments == 3       # ceil(5 / 2)
        assert len(array.registers) == 3

    def test_figure8_values_roundtrip(self):
        values = [5, 7, 31, 20, 10, 0, 26, 3, 15, 16]
        array = Mfira.from_values(values, item_bits=5)
        assert array.to_list() == values

    def test_physical_layout(self):
        # Item i's fragment f occupies bits [2i, 2i+2) of register f,
        # low fragment first.
        array = Mfira(capacity=10, item_bits=5)
        array.set(1, 0b10110)
        # fragments of 0b10110: low 2 bits 0b10, middle 0b01, high 0b1.
        assert (array.registers[0] >> 2) & 0b11 == 0b10
        assert (array.registers[1] >> 2) & 0b11 == 0b01
        assert (array.registers[2] >> 2) & 0b11 == 0b1


class TestGeometry:
    @pytest.mark.parametrize("capacity,item_bits,frag_bits,fragments", [
        (32, 1, 1, 1),       # a 32-entry bit array in one register
        (16, 8, 2, 4),
        (8, 6, 4, 2),
        (4, 8, 8, 1),
        (2, 16, 16, 1),
        (1, 32, 32, 1),
        (6, 3, 4, 1),        # available=5 -> fragment 4 (power of two)
    ])
    def test_parameters(self, capacity, item_bits, frag_bits, fragments):
        array = Mfira(capacity, item_bits)
        assert array.fragment_bits == frag_bits
        assert array.num_fragments == fragments

    def test_fragment_bits_power_of_two(self):
        # The offset computation must be a shift (paper Figure 8).
        for capacity in range(1, 33):
            array = Mfira(capacity, 1)
            assert array.fragment_bits & (array.fragment_bits - 1) == 0
            assert 1 << array.fragment_shift == array.fragment_bits

    def test_rejects_over_capacity(self):
        with pytest.raises(CapacityError):
            Mfira(capacity=33, item_bits=1)
        with pytest.raises(CapacityError):
            Mfira(capacity=0, item_bits=4)
        with pytest.raises(CapacityError):
            Mfira(capacity=4, item_bits=33)

    def test_for_values_sizing(self):
        array = Mfira.for_values(capacity=6, num_values=6)
        assert array.item_bits == 3


class TestAccess:
    def test_out_of_range_index(self):
        array = Mfira(4, 4)
        with pytest.raises(IndexError):
            array.get(4)
        with pytest.raises(IndexError):
            array.set(-1, 0)

    def test_value_too_wide(self):
        array = Mfira(4, 4)
        with pytest.raises(ValueError):
            array.set(0, 16)

    def test_dunder_access(self):
        array = Mfira(4, 4)
        array[2] = 9
        assert array[2] == 9
        assert len(array) == 4
        assert list(array) == [0, 0, 9, 0]

    @given(st.data())
    def test_roundtrip_random_geometry(self, data):
        capacity = data.draw(st.integers(1, 32))
        item_bits = data.draw(st.integers(1, 32))
        array = Mfira(capacity, item_bits)
        values = data.draw(st.lists(
            st.integers(0, 2 ** item_bits - 1),
            min_size=capacity, max_size=capacity))
        for i, v in enumerate(values):
            array.set(i, v)
        assert array.to_list() == values

    @given(st.data())
    def test_overwrite_is_isolated(self, data):
        """Writing one slot never disturbs its neighbours."""
        capacity = data.draw(st.integers(2, 16))
        item_bits = data.draw(st.integers(1, 16))
        array = Mfira(capacity, item_bits)
        baseline = data.draw(st.lists(
            st.integers(0, 2 ** item_bits - 1),
            min_size=capacity, max_size=capacity))
        for i, v in enumerate(baseline):
            array.set(i, v)
        target = data.draw(st.integers(0, capacity - 1))
        new_value = data.draw(st.integers(0, 2 ** item_bits - 1))
        array.set(target, new_value)
        expected = list(baseline)
        expected[target] = new_value
        assert array.to_list() == expected


class TestAsTransitionVectorBacking:
    def test_six_state_stv(self, csv_dfa):
        """MFIRA can back the RFC 4180 state-transition vector."""
        array = Mfira.for_values(capacity=csv_dfa.num_states,
                                 num_values=csv_dfa.num_states)
        # Simulate a chunk symbol by symbol, all 6 DFA instances in MFIRA.
        for i in range(csv_dfa.num_states):
            array.set(i, i)
        for byte in b'9,"Bookcas':
            group = csv_dfa.group_of(byte)
            for i in range(csv_dfa.num_states):
                array.set(i, int(csv_dfa.transitions[group, array.get(i)]))
        assert tuple(array.to_list()) \
            == csv_dfa.transition_vector(b'9,"Bookcas')
