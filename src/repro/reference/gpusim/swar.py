"""Branchless SWAR symbol matching (paper §4.5, Table 2).

During DFA simulation every thread must map each byte it reads to its
symbol group.  Rather than a 256-entry lookup table (which would not fit in
registers), the paper packs the handful of distinguished symbols into the
bytes of 32-bit *lookup registers* (LU-registers) and matches a read symbol
against four of them at a time:

1. replicate the read symbol into every byte of an ``s``-register;
2. XOR with each LU-register — matching bytes become zero;
3. apply Mycroft's 1987 null-byte mask
   ``H(x) = (x - 0x01010101) & ~x & 0x80808080`` — each zero byte's most
   significant bit is set;
4. ``bfind`` the most significant set bit and divide by 8 (shift right by
   3) — LU-registers without a match give ``0xFFFFFFFF >> 3 = 0x1FFFFFFF``;
5. take the minimum across LU-registers, then ``min`` with the catch-all
   group index, which also absorbs the no-match case.

Everything is arithmetic — no branches, so warp lanes never diverge.

:class:`SwarMatcher` implements the full scheme for an arbitrary DFA symbol
-group table and exposes the intermediate values so tests can replay the
paper's worked example bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dfa.automaton import Dfa
from repro.reference.gpusim.bitfield import bfind

__all__ = ["mycroft_null_byte_mask", "SwarMatcher", "SwarTrace"]

_U32 = 0xFFFFFFFF


def mycroft_null_byte_mask(value: int) -> int:
    """Mycroft's null-byte detector ``H(x)`` for a 32-bit word.

    Sets the most significant bit of every byte of ``value`` that is zero;
    all other bits are clear for inputs whose bytes are either zero or have
    their own high bit clear (which holds for XOR-of-equal-ASCII inputs,
    the only way the matcher uses it).

    >>> hex(mycroft_null_byte_mask(0x25500000))
    '0x8080'
    """
    if not 0 <= value <= _U32:
        raise ValueError("value must fit in 32 unsigned bits")
    return ((value - 0x01010101) & ~value & 0x80808080) & _U32


@dataclass
class SwarTrace:
    """Intermediate values of one match, for inspection/tests (Table 2)."""

    symbol: int
    s_register: int
    xors: list[int]
    masks: list[int]
    indexes: list[int]
    matched_index: int


class SwarMatcher:
    """Branchless byte -> symbol-group matcher for a DFA.

    The matcher enumerates every byte that is *not* in the DFA's catch-all
    group, packs those bytes into LU-registers (four per register, zero
    padded), and records each packed byte's symbol group.  Matching follows
    the Table 2 recipe exactly.

    The scheme requires the distinguished symbols to occupy few registers —
    delimiter-separated formats distinguish only a handful of symbols — and
    the catch-all group to have the *highest* group index so the final
    ``min`` folds the no-match sentinel onto it.  The constructor verifies
    both conditions.
    """

    #: ``bfind`` miss sentinel shifted right by 3 (paper Table 2).
    NO_MATCH_INDEX = 0x1FFFFFFF

    def __init__(self, dfa: Dfa, max_registers: int = 8):
        groups = dfa.symbol_groups
        catch_all = int(groups.max())
        counts = np.bincount(groups, minlength=catch_all + 1)
        if counts[catch_all] < 2:
            raise ValueError(
                "SWAR matching expects a catch-all group covering the "
                "undistinguished byte values")
        distinguished = [b for b in range(256) if groups[b] != catch_all]
        num_registers = (len(distinguished) + 3) // 4
        if num_registers > max_registers:
            raise ValueError(
                f"{len(distinguished)} distinguished symbols need "
                f"{num_registers} LU-registers, budget is {max_registers}")
        self.catch_all_group = catch_all
        self._dfa = dfa
        #: Packed LU-registers; byte lane ``k`` of register ``r`` holds
        #: distinguished symbol ``4r + k`` (zero padded).
        self.lu_registers: list[int] = []
        #: ``group_table[r][k]`` is the symbol group of that lane.
        self.group_table: list[list[int]] = []
        for r in range(num_registers):
            packed = 0
            lanes: list[int] = []
            for k in range(4):
                idx = 4 * r + k
                if idx < len(distinguished):
                    byte = distinguished[idx]
                    packed |= byte << (8 * k)
                    lanes.append(int(groups[byte]))
                else:
                    # Padding lanes must never match a real symbol; byte 0
                    # could collide with a genuine NUL symbol, so redirect
                    # padding to the catch-all group just in case.
                    lanes.append(catch_all)
            self.lu_registers.append(packed)
            self.group_table.append(lanes)
        # NUL padding lanes in partially filled registers match symbol 0;
        # if NUL is itself distinguished it was packed explicitly, so a
        # padded lane matching 0 must map to the catch-all group (handled
        # above via lanes[]).

    # -- matching -----------------------------------------------------------

    def match_index(self, symbol: int, trace: bool = False
                    ) -> int | SwarTrace:
        """Return (register, lane) as a flat index, or the no-match fold.

        The flat index is ``4 * register + lane``; a miss returns the
        catch-all fold as described in Table 2.  With ``trace=True`` all
        intermediate registers are returned for inspection.
        """
        if not 0 <= symbol <= 0xFF:
            raise ValueError("symbol must be one byte")
        s_register = symbol * 0x01010101
        xors: list[int] = []
        masks: list[int] = []
        indexes: list[int] = []
        best = self.NO_MATCH_INDEX
        for r, lu in enumerate(self.lu_registers):
            x = lu ^ s_register
            xors.append(x)
            h = mycroft_null_byte_mask(x)
            masks.append(h)
            # Mycroft's mask can false-positive on an 0x01 byte directly
            # above a zero byte (the subtraction borrows through it), but
            # the *least significant* flagged byte is always a true zero —
            # so isolate the lowest set bit before bfind.  (`h & -h` is a
            # single-instruction idiom on GPUs too.)
            idx = bfind(h & -h & 0xFFFFFFFF) >> 3
            indexes.append(idx)
            candidate = idx if idx == self.NO_MATCH_INDEX else 4 * r + idx
            best = min(best, candidate)
        if trace:
            return SwarTrace(symbol=symbol, s_register=s_register,
                             xors=xors, masks=masks, indexes=indexes,
                             matched_index=best)
        return best

    def group_of(self, symbol: int) -> int:
        """Symbol group of one byte, via the SWAR path.

        Equivalent to ``dfa.group_of(symbol)``; the equivalence over all
        256 byte values is property tested.
        """
        idx = self.match_index(symbol)
        assert isinstance(idx, int)
        if idx == self.NO_MATCH_INDEX:
            return self.catch_all_group
        register, lane = divmod(idx, 4)
        group = self.group_table[register][lane]
        # A padded zero lane can spuriously match symbol 0; its group was
        # set to the catch-all, so the result is still correct.
        return group

    def groups_of(self, data: np.ndarray) -> np.ndarray:
        """Vectorised SWAR matching over a uint8 array.

        Implements steps 1-5 with NumPy uint32 arithmetic — the same
        operation per lane as the scalar path, element-wise over the whole
        input.  Used to cross-check the scalar matcher at scale.
        """
        if data.dtype != np.uint8:
            raise ValueError("expected a uint8 array")
        s = data.astype(np.uint32) * np.uint32(0x01010101)
        best = np.full(data.shape, self.NO_MATCH_INDEX, dtype=np.uint32)
        for r, lu in enumerate(self.lu_registers):
            x = np.uint32(lu) ^ s
            h = ((x - np.uint32(0x01010101)) & ~x
                 & np.uint32(0x80808080)).astype(np.uint32)
            # Isolate the lowest flagged byte (see the scalar path for the
            # borrow caveat): h & -h in two's complement.
            h = h & (~h + np.uint32(1))
            # Vectorised bfind: position of MSB via bit_length analogue.
            idx = np.full(data.shape, self.NO_MATCH_INDEX, dtype=np.uint32)
            nonzero = h != 0
            if np.any(nonzero):
                msb = np.zeros(data.shape, dtype=np.uint32)
                hv = h.copy()
                for shift in (16, 8, 4, 2, 1):
                    step = hv >= (np.uint32(1) << np.uint32(shift))
                    msb = np.where(step, msb + shift, msb)
                    hv = np.where(step, hv >> np.uint32(shift), hv)
                idx = np.where(nonzero, msb >> np.uint32(3), idx)
            candidate = np.where(idx == self.NO_MATCH_INDEX, idx,
                                 np.uint32(4 * r) + idx)
            best = np.minimum(best, candidate)
        # Translate flat indexes to groups through the lane table.
        flat_groups = np.array(
            [g for lanes in self.group_table for g in lanes],
            dtype=np.uint8)
        out = np.full(data.shape, self.catch_all_group, dtype=np.uint8)
        matched = best != self.NO_MATCH_INDEX
        out[matched] = flat_groups[best[matched]]
        return out
