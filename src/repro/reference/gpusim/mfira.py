"""Multi-fragment in-register array (MFIRA) — paper §4.5, Figure 8.

GPU threads cannot dynamically index into the register file, yet ParPaRaw
needs small dynamically-indexed arrays (the state-transition vector, symbol
tables, the transition table itself when small).  MFIRA works around the
constraint: although *registers* cannot be addressed dynamically, *bits
within a register* can, using the two-cycle BFI/BFE intrinsics.

An item of ``b`` bits is split into fragments; fragment ``f`` of item ``i``
lives in register ``f`` at bit offset ``i * k``, where ``k`` is the number
of bits a register devotes to each item's fragment:

* a register can host ``a = floor(32 / capacity)`` bits per item;
* ``k = 2 ** floor(log2(a))`` — rounded *down* to a power of two so the
  bit offset ``i * k`` is computed with a shift instead of an integer
  multiplication (paper Figure 8);
* the item needs ``ceil(b / k)`` fragments, i.e. that many registers.

The worked example of Figure 8 — capacity 10, 5-bit items — gives
``a = 3``, ``k = 2``, 3 fragments, and is reproduced verbatim in the tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import CapacityError
from repro.reference.gpusim.bitfield import bfe, bfi
from repro.reference.utils.bits import bits_required

__all__ = ["Mfira"]

_REGISTER_BITS = 32


class Mfira:
    """A bounded, dynamically indexable array packed into 32-bit registers.

    Parameters
    ----------
    capacity:
        Maximum number of items (fixed; this is an in-register structure).
    item_bits:
        Width of each item in bits (1..32).

    Notes
    -----
    The register images are plain Python ints constrained to 32 bits, and
    every access goes through :func:`~repro.reference.gpusim.bitfield.bfi` /
    :func:`~repro.reference.gpusim.bitfield.bfe`, so the data layout is
    exactly the physical view of Figure 8 (fragments of an item distributed
    across registers at offset ``index * fragment_bits``).
    """

    def __init__(self, capacity: int, item_bits: int):
        if capacity <= 0:
            raise CapacityError("capacity must be positive")
        if not 1 <= item_bits <= _REGISTER_BITS:
            raise CapacityError("item_bits must be in 1..32")
        available = _REGISTER_BITS // capacity
        if available < 1:
            raise CapacityError(
                f"capacity {capacity} exceeds one item-bit per register; "
                f"a 32-bit register cannot hold {capacity} fragments")
        self.capacity = capacity
        self.item_bits = item_bits
        #: Bits per item a register *could* devote.
        self.available_bits = available
        #: Bits per fragment actually used: the largest power of two
        #: <= available, so offsets are shifts (paper Figure 8).
        self.fragment_bits = 1 << (available.bit_length() - 1)
        #: log2(fragment_bits) — the shift amount replacing the multiply.
        self.fragment_shift = self.fragment_bits.bit_length() - 1
        #: Number of fragments (= registers) per item.
        self.num_fragments = -(-item_bits // self.fragment_bits)
        #: The simulated register file backing the array.
        self.registers: list[int] = [0] * self.num_fragments

    @classmethod
    def for_values(cls, capacity: int, num_values: int) -> "Mfira":
        """Size an MFIRA for items ranging over ``num_values`` values.

        This is how the parser sizes the state-transition vector: capacity
        = number of states, item width = bits required to encode a state.
        """
        return cls(capacity, bits_required(num_values))

    # -- element access -----------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise IndexError(
                f"index {index} out of range for capacity {self.capacity}")

    def get(self, index: int) -> int:
        """Read the item at ``index`` by reassembling its fragments."""
        self._check_index(index)
        offset = index << self.fragment_shift
        value = 0
        remaining = self.item_bits
        for fragment, register in enumerate(self.registers):
            take = min(self.fragment_bits, remaining)
            part = bfe(register, offset, take)
            value |= part << (fragment * self.fragment_bits)
            remaining -= take
            if remaining <= 0:
                break
        return value

    def set(self, index: int, value: int) -> None:
        """Write ``value`` at ``index`` by distributing its fragments."""
        self._check_index(index)
        if not 0 <= value < (1 << self.item_bits):
            raise ValueError(
                f"value {value} does not fit in {self.item_bits} bits")
        offset = index << self.fragment_shift
        remaining = self.item_bits
        for fragment in range(self.num_fragments):
            take = min(self.fragment_bits, remaining)
            part = (value >> (fragment * self.fragment_bits)) \
                & ((1 << take) - 1)
            self.registers[fragment] = bfi(part, self.registers[fragment],
                                           offset, take)
            remaining -= take
            if remaining <= 0:
                break

    # -- bulk helpers --------------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[int], item_bits: int) -> "Mfira":
        """Pack an iterable of values into a new MFIRA."""
        values = list(values)
        array = cls(len(values), item_bits)
        for i, v in enumerate(values):
            array.set(i, v)
        return array

    def to_list(self) -> list[int]:
        """Materialise all items (for tests/inspection)."""
        return [self.get(i) for i in range(self.capacity)]

    def __len__(self) -> int:
        return self.capacity

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def __getitem__(self, index: int) -> int:
        return self.get(index)

    def __setitem__(self, index: int, value: int) -> None:
        self.set(index, value)

    def __repr__(self) -> str:
        return (f"Mfira(capacity={self.capacity}, item_bits={self.item_bits},"
                f" fragment_bits={self.fragment_bits},"
                f" fragments={self.num_fragments})")
