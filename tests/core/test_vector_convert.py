"""Property tests: vectorised converters ≡ scalar converters.

Each vector parser must, over arbitrary byte fields, either (a) agree with
the scalar reference exactly, or (b) flag the field for fallback — never
silently disagree.  The numeric parsers are also checked at every
body-width class edge, and against a memory bound on skewed columns.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.schema import DataType
from repro.core.scalar_convert import (
    parse_bool_scalar,
    parse_date_scalar,
    parse_decimal_scalar,
    parse_float_scalar,
    parse_int_scalar,
    parse_timestamp_scalar,
)
from repro.core.vector_convert import (
    _field_matrix,
    pack_fields,
    parse_bool_vector,
    parse_date_vector,
    parse_decimal_vector,
    parse_float_vector,
    parse_int_vector,
    parse_timestamp_vector,
)


def packed(fields: list[bytes]):
    """Build (buf, offsets, lengths) for a list of non-empty fields."""
    src = np.frombuffer(b"".join(fields), dtype=np.uint8)
    lengths = np.array([len(f) for f in fields], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    buf, offsets = pack_fields(src, starts, lengths)
    return buf, offsets, lengths


numeric_text = st.one_of(
    st.integers(-10 ** 20, 10 ** 20).map(lambda v: str(v).encode()),
    st.floats(allow_nan=False, allow_infinity=False)
      .map(lambda v: repr(v).encode()),
    st.floats(allow_nan=False, allow_infinity=False, width=32)
      .map(lambda v: f"{v:.4f}".encode()),
    st.binary(min_size=1, max_size=8),   # garbage
    st.sampled_from([b"-", b"+", b".", b"1.", b".5", b"007", b"-0",
                     b"1e5", b"nan", b"inf", b"1.2.3", b"--3",
                     # Python-isms both converters must reject in parity:
                     b"infinity", b"Infinity", b"-INF",
                     b"1_0", b"1_000", b"1_0.5", b"1_0e2"]),
)


class TestPackFields:
    def test_gathers_slices(self):
        src = np.frombuffer(b"aXbbXccc", dtype=np.uint8)
        starts = np.array([0, 2, 5])
        lengths = np.array([1, 2, 3])
        buf, offsets = pack_fields(src, starts, lengths)
        assert buf.tobytes() == b"abbccc"
        assert offsets.tolist() == [0, 1, 3]

    def test_empty(self):
        buf, offsets = pack_fields(np.zeros(0, dtype=np.uint8),
                                   np.zeros(0, dtype=np.int64),
                                   np.zeros(0, dtype=np.int64))
        assert buf.size == 0 and offsets.size == 0


class TestIntVector:
    @given(st.lists(numeric_text, min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_agrees_or_falls_back(self, fields):
        buf, offsets, lengths = packed(fields)
        values, ok, fallback = parse_int_vector(buf, offsets, lengths)
        for i, field in enumerate(fields):
            if fallback[i]:
                continue
            expected, expected_ok = parse_int_scalar(field)
            assert bool(ok[i]) == expected_ok, field
            if expected_ok:
                assert int(values[i]) == expected, field

    @given(st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), min_size=1,
                    max_size=30))
    def test_valid_ints_roundtrip(self, numbers):
        fields = [str(n).encode() for n in numbers]
        buf, offsets, lengths = packed(fields)
        values, ok, fallback = parse_int_vector(buf, offsets, lengths)
        for i, n in enumerate(numbers):
            if fallback[i]:
                assert len(fields[i].lstrip(b"-+")) > 18
            else:
                assert ok[i] and int(values[i]) == n

    def test_narrow_dtype_bounds(self):
        buf, offsets, lengths = packed([b"127", b"128", b"-128", b"-129"])
        values, ok, _ = parse_int_vector(buf, offsets, lengths,
                                         DataType.INT8)
        assert ok.tolist() == [True, False, True, False]

    def test_empty_input(self):
        values, ok, fb = parse_int_vector(np.zeros(0, dtype=np.uint8),
                                          np.zeros(0, dtype=np.int64),
                                          np.zeros(0, dtype=np.int64))
        assert values.size == ok.size == fb.size == 0


class TestFloatVector:
    @given(st.lists(numeric_text, min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_agrees_or_falls_back(self, fields):
        buf, offsets, lengths = packed(fields)
        values, ok, fallback = parse_float_vector(buf, offsets, lengths)
        for i, field in enumerate(fields):
            if fallback[i]:
                continue
            expected, expected_ok = parse_float_scalar(field)
            assert bool(ok[i]) == expected_ok, field
            if expected_ok:
                assert float(values[i]) == expected, field

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=30))
    def test_bit_exact_on_plain_literals(self, numbers):
        fields = [f"{n:.6f}".encode() for n in numbers]
        buf, offsets, lengths = packed(fields)
        values, ok, fallback = parse_float_vector(buf, offsets, lengths)
        for i, field in enumerate(fields):
            if not fallback[i]:
                assert ok[i]
                assert float(values[i]) == float(field), field

    def test_exponents_route_to_fallback(self):
        buf, offsets, lengths = packed([b"1e5", b"2E-3", b"inf", b"nan"])
        _, ok, fallback = parse_float_vector(buf, offsets, lengths)
        assert fallback.all()
        assert not ok.any()


class TestDecimalVector:
    @given(st.lists(numeric_text, min_size=1, max_size=30),
           st.integers(0, 4))
    @settings(max_examples=120)
    def test_agrees_or_falls_back(self, fields, scale):
        buf, offsets, lengths = packed(fields)
        values, ok, fallback = parse_decimal_vector(buf, offsets, lengths,
                                                    scale)
        for i, field in enumerate(fields):
            if fallback[i]:
                continue
            expected, expected_ok = parse_decimal_scalar(field, scale)
            assert bool(ok[i]) == expected_ok, (field, scale)
            if expected_ok:
                assert int(values[i]) == expected, (field, scale)

    def test_figure5_prices(self):
        buf, offsets, lengths = packed([b"199.99", b"19.99"])
        values, ok, _ = parse_decimal_vector(buf, offsets, lengths, 2)
        assert ok.all()
        assert values.tolist() == [19999, 1999]


class TestBoolVector:
    @given(st.lists(st.one_of(
        st.sampled_from([b"1", b"0", b"t", b"f", b"true", b"false",
                         b"True", b"False", b"TRUE", b"FALSE"]),
        st.binary(min_size=1, max_size=6)), min_size=1, max_size=30))
    def test_agrees(self, fields):
        buf, offsets, lengths = packed(fields)
        values, ok, fallback = parse_bool_vector(buf, offsets, lengths)
        assert not fallback.any()
        for i, field in enumerate(fields):
            expected, expected_ok = parse_bool_scalar(field)
            assert bool(ok[i]) == expected_ok, field
            if expected_ok:
                assert bool(values[i]) == expected


date_like = st.one_of(
    st.tuples(st.integers(1900, 2100), st.integers(0, 13),
              st.integers(0, 32)).map(
        lambda t: f"{t[0]:04d}-{t[1]:02d}-{t[2]:02d}".encode()),
    st.binary(min_size=1, max_size=12),
)


class TestDateVector:
    @given(st.lists(date_like, min_size=1, max_size=30))
    @settings(max_examples=120)
    def test_agrees(self, fields):
        buf, offsets, lengths = packed(fields)
        values, ok, fallback = parse_date_vector(buf, offsets, lengths)
        assert not fallback.any()
        for i, field in enumerate(fields):
            expected, expected_ok = parse_date_scalar(field)
            assert bool(ok[i]) == expected_ok, field
            if expected_ok:
                assert int(values[i]) == expected


timestamp_like = st.one_of(
    st.tuples(st.integers(1900, 2100), st.integers(1, 12),
              st.integers(1, 28), st.integers(0, 24), st.integers(0, 60),
              st.integers(0, 60)).map(
        lambda t: (f"{t[0]:04d}-{t[1]:02d}-{t[2]:02d} "
                   f"{t[3]:02d}:{t[4]:02d}:{t[5]:02d}").encode()),
    st.binary(min_size=1, max_size=20),
)


class TestTimestampVector:
    @given(st.lists(timestamp_like, min_size=1, max_size=30))
    @settings(max_examples=120)
    def test_agrees(self, fields):
        buf, offsets, lengths = packed(fields)
        values, ok, fallback = parse_timestamp_vector(buf, offsets, lengths)
        assert not fallback.any()
        for i, field in enumerate(fields):
            expected, expected_ok = parse_timestamp_scalar(field)
            assert bool(ok[i]) == expected_ok, field
            if expected_ok:
                assert int(values[i]) == expected


def _body(length: int, dot: int | None, draw_digit) -> bytes:
    """``length`` digits, with position ``dot`` (if any) made a dot."""
    text = bytearray(draw_digit() for _ in range(length))
    if dot is not None:
        text[dot % length] = ord(".")
    return bytes(text)


#: Body lengths on both sides of every width-class edge (4/5, 8/9,
#: 18/19), plus the narrowest and one past the fallback edge.
EDGE_LENGTHS = [1, 3, 4, 5, 7, 8, 9, 17, 18, 19, 20]


@st.composite
def edge_fields(draw):
    length = draw(st.sampled_from(EDGE_LENGTHS) | st.integers(1, 20))
    dot = draw(st.none() | st.integers(0, 19))
    sign = draw(st.sampled_from([b"", b"-", b"+"]))
    digit = st.integers(ord("0"), ord("9"))
    return sign + _body(length, dot, lambda: draw(digit))


class TestWidthClasses:
    """One column mixes bodies from every width class; each field must
    still agree with the scalar parser or fall back."""

    @given(st.lists(edge_fields(), min_size=1, max_size=40),
           st.integers(0, 6))
    @settings(max_examples=200)
    def test_numeric_parsers_at_class_edges(self, fields, scale):
        buf, offsets, lengths = packed(fields)
        for parse, scalar in (
                (parse_int_vector, parse_int_scalar),
                (parse_float_vector, parse_float_scalar),
                (lambda *a: parse_decimal_vector(*a, scale),
                 lambda f: parse_decimal_scalar(f, scale))):
            values, ok, fallback = parse(buf, offsets, lengths)
            for i, field in enumerate(fields):
                if fallback[i]:
                    continue
                expected, expected_ok = scalar(field)
                assert bool(ok[i]) == expected_ok, (parse, field)
                if expected_ok:
                    assert values[i] == expected, (parse, field)

    @given(st.lists(edge_fields(), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_ints_up_to_18_digits_never_fall_back(self, fields):
        buf, offsets, lengths = packed(fields)
        _, _, fallback = parse_int_vector(buf, offsets, lengths)
        bodies = [len(f.lstrip(b"+-")) for f in fields]
        assert fallback.tolist() == [b > 18 for b in bodies]

    def test_field_matrix_right_aligns_and_pads(self):
        buf, offsets, lengths = packed([b"7", b"123", b"98765"])
        matrix = _field_matrix(buf, offsets + lengths, lengths, 3)
        assert [row.tobytes() for row in matrix] \
            == [b"007", b"123", b"765"]


def _traced_peak(parse, fields, *extra) -> int:
    buf, offsets, lengths = packed(fields)
    tracemalloc.start()
    try:
        parse(buf, offsets, lengths, *extra)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSkewBound:
    """One 18-digit outlier must not widen a column of short fields: a
    single column-wide matrix costs 1.6-2.3x the memory here."""

    @pytest.mark.parametrize("parse,short,extra", [
        (parse_int_vector, b"7", ()),
        (parse_decimal_vector, b"1.25", (2,)),
    ], ids=["int", "decimal"])
    def test_outlier_peak_within_bound(self, parse, short, extra):
        fields = [short] * 200_000
        plain = _traced_peak(parse, fields, *extra)
        fields[-1] = b"123456789012345678"
        skewed = _traced_peak(parse, fields, *extra)
        assert skewed <= 1.25 * plain, (skewed, plain)
