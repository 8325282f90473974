"""Property tests: parallel UTF-8 validation ≡ Python's strict decoder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.reference.dfa.utf8 import utf8_validation_dfa, validate_utf8


def python_accepts(data: bytes) -> bool:
    try:
        data.decode("utf-8", errors="strict")
        return True
    except UnicodeDecodeError:
        return False


class TestAutomaton:
    def test_nine_states_twelve_groups(self):
        dfa = utf8_validation_dfa()
        assert dfa.num_states == 9
        assert dfa.num_groups == 12

    def test_minimal(self):
        from repro.dfa.compression import is_minimal
        assert is_minimal(utf8_validation_dfa())


class TestKnownCases:
    @pytest.mark.parametrize("data", [
        b"",
        b"plain ascii",
        "grüße".encode(),
        "日本語".encode(),
        "😀🎉".encode(),
        b"\xf4\x8f\xbf\xbf",          # U+10FFFF, the maximum
        b"\xed\x9f\xbf",              # U+D7FF, last before surrogates
        b"\xee\x80\x80",              # U+E000, first after surrogates
    ])
    def test_valid(self, data):
        assert validate_utf8(data)

    @pytest.mark.parametrize("data", [
        b"\x80",                      # bare continuation
        b"\xc3",                      # truncated 2-byte
        b"\xe0\x80\x80",              # overlong 3-byte
        b"\xc0\xaf",                  # overlong 2-byte (C0 banned)
        b"\xed\xa0\x80",              # UTF-16 high surrogate
        b"\xf4\x90\x80\x80",          # beyond U+10FFFF
        b"\xf5\x80\x80\x80",          # banned lead F5
        b"ok then \xff",              # stray invalid byte
        b"\xe2\x82",                  # truncated 3-byte
        b"\xc3\xc3\xa9",              # continuation missing
    ])
    def test_invalid(self, data):
        assert not validate_utf8(data)


class TestEquivalenceWithPython:
    @given(st.binary(max_size=120), st.integers(1, 17))
    @settings(max_examples=250)
    def test_arbitrary_bytes(self, data, chunk_size):
        assert validate_utf8(data, chunk_size) == python_accepts(data)

    @given(st.text(max_size=60), st.integers(1, 17))
    @settings(max_examples=100)
    def test_valid_text_accepted(self, text, chunk_size):
        assert validate_utf8(text.encode("utf-8"), chunk_size)

    @given(st.text(min_size=1, max_size=40), st.integers(0, 100))
    @settings(max_examples=100)
    def test_corruption_detected_like_python(self, text, position):
        data = bytearray(text.encode("utf-8"))
        position = position % len(data)
        data[position] ^= 0x80  # flip the high bit of one byte
        assert validate_utf8(bytes(data)) == python_accepts(bytes(data))


class TestChunkIndependence:
    @given(st.binary(max_size=80))
    @settings(max_examples=80)
    def test_all_chunk_sizes_agree(self, data):
        results = {validate_utf8(data, cs) for cs in (1, 2, 5, 31, 1000)}
        assert len(results) == 1
