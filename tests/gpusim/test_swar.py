"""Tests for branchless SWAR symbol matching, incl. the Table 2 example."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dfa.builder import DfaBuilder
from repro.dfa.csv import dialect_dfa, rfc4180_dfa
from repro.dfa.dialects import Dialect
from repro.dfa.automaton import Emission
from repro.reference.gpusim.swar import SwarMatcher, mycroft_null_byte_mask


class TestMycroftMask:
    def test_detects_null_bytes(self):
        # H(x) sets the MSB of each zero byte.
        assert mycroft_null_byte_mask(0x00112200) == 0x80000080
        assert mycroft_null_byte_mask(0x11223344) == 0

    def test_all_zero(self):
        assert mycroft_null_byte_mask(0) == 0x80808080

    @given(st.lists(st.integers(0, 0x7F), min_size=4, max_size=4))
    def test_per_byte_detection(self, byte_values):
        # For ASCII-range bytes (high bit clear, as XOR of equal ASCII
        # yields), H flags exactly the zero bytes.
        word = sum(b << (8 * i) for i, b in enumerate(byte_values))
        mask = mycroft_null_byte_mask(word)
        for i, b in enumerate(byte_values):
            flagged = bool(mask & (0x80 << (8 * i)))
            assert flagged == (b == 0)


class TestTable2WorkedExample:
    """The exact walk-through of the paper's Table 2."""

    def build_matcher(self) -> SwarMatcher:
        # Table 2 distinguishes \n, ", ,, |, \t with groups 0,1,2,2,2 and
        # catch-all 3.
        builder = (DfaBuilder()
                   .state("S", accepting=True)
                   .group("g0", b"\n")
                   .group("g1", b'"')
                   .group("g2", b",|\t")
                   .catch_all("g3"))
        for group in ("g0", "g1", "g2", "g3"):
            builder.transition("S", group, "S", Emission.DATA)
        return SwarMatcher(builder.start("S").build())

    def test_lu_register_layout(self):
        matcher = self.build_matcher()
        # Distinguished bytes in ascending byte order: \t(0x09), \n(0x0A),
        # "(0x22), ,(0x2C), |(0x7C) -> first register packs the first four.
        assert matcher.lu_registers[0] == (0x09 | (0x0A << 8)
                                           | (0x22 << 16) | (0x2C << 24))
        assert matcher.lu_registers[1] == 0x7C

    def test_read_comma_trace(self):
        matcher = self.build_matcher()
        trace = matcher.match_index(ord(","), trace=True)
        assert trace.s_register == 0x2C2C2C2C
        # Register 0 XOR: bytes 25 26 0E 00 from high to low in the
        # paper's table ordering; the zero byte is lane 3.
        assert trace.xors[0] == (0x09 ^ 0x2C) | ((0x0A ^ 0x2C) << 8) \
            | ((0x22 ^ 0x2C) << 16)
        assert trace.masks[0] == 0x80000000
        assert trace.indexes[0] == 3
        assert trace.matched_index == 3  # lane 3 of register 0

    def test_comma_group(self):
        matcher = self.build_matcher()
        assert matcher.group_of(ord(",")) == 2
        assert matcher.group_of(ord("|")) == 2
        assert matcher.group_of(ord("\t")) == 2
        assert matcher.group_of(ord("\n")) == 0
        assert matcher.group_of(ord('"')) == 1

    def test_no_match_folds_to_catch_all(self):
        matcher = self.build_matcher()
        trace = matcher.match_index(ord("x"), trace=True)
        assert trace.matched_index == SwarMatcher.NO_MATCH_INDEX
        assert matcher.group_of(ord("x")) == 3


class TestEquivalenceWithLookup:
    @pytest.mark.parametrize("dialect", [
        Dialect.csv(), Dialect.tsv(), Dialect.pipe(),
        Dialect.csv_with_comments(), Dialect(escape=b"\\"),
    ], ids=["csv", "tsv", "pipe", "comments", "escape"])
    def test_all_256_bytes(self, dialect):
        dfa = dialect_dfa(dialect)
        matcher = SwarMatcher(dfa)
        for byte in range(256):
            assert matcher.group_of(byte) == dfa.group_of(byte), byte

    def test_vectorised_path_matches_scalar(self):
        dfa = rfc4180_dfa()
        matcher = SwarMatcher(dfa)
        data = np.arange(256, dtype=np.uint8)
        out = matcher.groups_of(data)
        assert out.tolist() == [dfa.group_of(b) for b in range(256)]

    @given(st.binary(max_size=300))
    def test_vectorised_on_random_payloads(self, payload):
        dfa = rfc4180_dfa()
        matcher = SwarMatcher(dfa)
        data = np.frombuffer(payload, dtype=np.uint8)
        assert matcher.groups_of(data).tolist() \
            == dfa.symbol_groups[data].tolist()


class TestConstraints:
    def test_register_budget_enforced(self):
        builder = DfaBuilder().state("S", accepting=True)
        builder.group("big", bytes(range(64)))
        builder.catch_all("rest")
        builder.transition("S", "big", "S", Emission.DATA)
        builder.transition("S", "rest", "S", Emission.DATA)
        dfa = builder.start("S").build()
        with pytest.raises(ValueError):
            SwarMatcher(dfa, max_registers=8)
        # A larger budget accommodates it.
        assert SwarMatcher(dfa, max_registers=16).group_of(0) == 0
