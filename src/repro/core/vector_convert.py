"""Vectorised field converters.

These implement type conversion as whole-column array operations — the
NumPy translation of the paper's thread-per-field conversion kernels
(§3.3).  Each parser consumes a *packed* field set: a contiguous uint8
buffer holding the fields back to back, with ``lengths`` per field (all
strictly positive — empty fields are resolved to defaults/NULL before
conversion).  Each returns fresh ``(values, ok, fallback)`` arrays the
caller owns; ``fallback`` flags fields the vectorised path declines
(e.g. bodies over 18 bytes, exponent floats), and the orchestrator
re-parses those with the scalar reference converters, so the combined
result is exactly the scalar semantics (property tested).  Values are
zero wherever ``ok`` is unset.

Booleans are matched as literals (:func:`match_literals`, as NULLs
are).  Every other parser shares one skeleton: :func:`_field_matrix`
gathers each field's bytes into a right-aligned ``(n, width)`` matrix, one row per
field — the bytes a GPU thread holds when it converts a short field.
Dates and timestamps read rows of exactly 10 or 19 bytes.  The numeric
parsers read the field *body* (sign stripped) through
:func:`_parse_numbers`, which sizes its matrices by body-width class
(≤4, ≤8, ≤18 bytes) so a single long outlier does not widen the whole
column, finds the dot per row with ``argmax`` and forms the mantissa by
Horner's rule over the columns (:func:`_horner`).
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

from typing import NamedTuple

import numpy as np

from repro.columnar.schema import DataType
from repro.scan.numpy_scan import exclusive_sum

__all__ = [
    "pack_fields",
    "match_literals",
    "parse_int_vector",
    "parse_float_vector",
    "parse_decimal_vector",
    "parse_bool_vector",
    "parse_date_vector",
    "parse_timestamp_vector",
]

_POW10 = np.power(np.int64(10), np.arange(19, dtype=np.int64))
_INT_BOUNDS = {
    DataType.INT8: (-(2 ** 7), 2 ** 7 - 1),
    DataType.INT16: (-(2 ** 15), 2 ** 15 - 1),
    DataType.INT32: (-(2 ** 31), 2 ** 31 - 1),
    DataType.INT64: (-(2 ** 63), 2 ** 63 - 1),
}

_MINUS = np.uint8(ord("-"))
_PLUS = np.uint8(ord("+"))
_DOT = np.uint8(ord("."))
_ZERO = np.uint8(ord("0"))

#: Upper body width of each numeric matrix; longer bodies fall back.
_WIDTH_CLASSES = (4, 8, 18)

_TRUE_LITERALS = (b"1", b"t", b"T", b"true", b"True", b"TRUE")
_FALSE_LITERALS = (b"0", b"f", b"F", b"false", b"False", b"FALSE")


def pack_fields(src: np.ndarray, starts: np.ndarray,
                lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather ragged field slices into one contiguous buffer.

    Returns ``(buffer, offsets)`` with ``offsets = exclusive_sum(lengths)``.
    The gather builds an index array with the classic repeat/cumsum ragged
    -range trick (no Python loop over fields).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    offsets = exclusive_sum(lengths)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint8), offsets
    positions = (np.arange(total, dtype=np.int64)
                 - np.repeat(offsets, lengths)
                 + np.repeat(starts, lengths))
    return src[positions], offsets


def match_literals(buf: np.ndarray, offsets: np.ndarray,
                   lengths: np.ndarray,
                   literals: tuple[bytes, ...]) -> np.ndarray:
    """Which packed fields equal one of ``literals`` exactly.

    Vectorised per literal (length check + per-byte compare); used for
    boolean parsing and NULL-literal detection (paper §3.3 mentions
    "identifying NULLs" during conversion).
    """
    n = len(lengths)
    matched = np.zeros(n, dtype=bool)
    for literal in literals:  # parlint: disable=PPR401 -- one pass per literal, a small config constant
        candidates = lengths == len(literal)
        if not np.any(candidates) or not literal:
            continue
        this = candidates.copy()
        for i, ch in enumerate(literal):  # parlint: disable=PPR401 -- bounded by the literal's length with vectorised per-byte compares
            idx = np.where(candidates, offsets + i, 0)
            this &= buf[idx] == ch
        matched |= this
    return matched


def _field_matrix(buf: np.ndarray, ends: np.ndarray, widths: np.ndarray,
                  width: int) -> np.ndarray:
    """Right-aligned ``(n, width)`` bytes of each field.

    Row ``i`` holds the ``widths[i]`` bytes ending at ``ends[i]``,
    padded on the left with ``'0'``; a field wider than ``width`` keeps
    only its last ``width`` bytes.  The matrix is stored column-major:
    one byte position across all fields is contiguous, which is what the
    per-column reductions read.
    """
    matrix = np.empty((width, len(ends)), dtype=np.uint8)
    shortest = int(widths.min(initial=width))
    for back, column in zip(range(width, 0, -1), matrix):  # parlint: disable=PPR401 -- one gather per byte position, width <= 19
        np.take(buf, np.maximum(ends - back, 0), out=column)
        if back > shortest:
            column[widths < back] = _ZERO
    return matrix.T


def _horner(digits: np.ndarray) -> np.ndarray:
    """Each row of a digit matrix read as one base-10 integer (int64)."""
    value = np.zeros(digits.shape[0], dtype=np.int64)
    for column in digits.T:  # parlint: disable=PPR401 -- one multiply-add per matrix column, width <= 19
        value *= 10
        value += column
    return value


class _Numbers(NamedTuple):
    """Per-field shape of ``[+-]body`` numeric literals.

    Only ``sign`` and ``fallback`` are meaningful where ``fallback`` is
    set (bodies over 18 bytes).
    """

    sign: np.ndarray         #: -1 or +1
    mantissa: np.ndarray     #: the body's digits as one integer
    frac_len: np.ndarray     #: bytes after the first dot
    dot_count: np.ndarray
    digit_count: np.ndarray
    ok: np.ndarray           #: digits with at most one dot, >= 1 digit
    alpha: np.ndarray        #: the body holds an ASCII letter
    fallback: np.ndarray     #: left to the scalar path


def _matrix_numbers(matrix: np.ndarray, widths: np.ndarray) -> tuple:
    """:class:`_Numbers` fields (minus sign/fallback) of body rows."""
    width = matrix.shape[1]
    digits = matrix - _ZERO  # uint8 wraps bytes below '0' past 9
    is_digit = digits <= 9
    is_dot = matrix == _DOT
    dot_count = is_dot.sum(axis=1)
    # The left padding is '0's, not body digits.
    digit_count = is_digit.sum(axis=1) - (width - widths)
    ok = np.all(is_digit | is_dot, axis=1) & (dot_count <= 1) \
        & (digit_count >= 1)
    alpha = np.any((matrix | np.uint8(0x20)) - np.uint8(ord("a")) <= 25,
                   axis=1)
    has_dot = dot_count > 0
    frac_len = np.where(has_dot, width - 1 - np.argmax(is_dot, axis=1), 0)
    digits[~is_digit] = 0
    mantissa = _horner(digits)
    if np.any(has_dot):
        # Drop the dot column: the digits left of it read one power of
        # ten too high.
        low = _POW10[frac_len]
        mantissa = mantissa // _POW10[frac_len + has_dot] * low \
            + mantissa % low
    return mantissa, frac_len, dot_count, digit_count, ok, alpha


def _parse_numbers(buf: np.ndarray, offsets: np.ndarray,
                   lengths: np.ndarray) -> _Numbers:
    """The numeric core shared by the int, float and decimal parsers.

    Bodies fall into width classes (:data:`_WIDTH_CLASSES`).  The class
    holding the most fields sets the width of one matrix over every
    field: narrower bodies are padded, wider ones truncated.  Each wider
    class then gets its own matrix, as wide as its longest body, and
    overwrites its fields.  So the matrices stay proportional to the
    column's bytes however skewed its lengths, and the common
    single-class column scatters nothing.
    """
    first = buf[offsets]
    negative = first == _MINUS
    body = lengths - (negative | (first == _PLUS))
    ends = offsets + lengths
    sizes = np.bincount(np.searchsorted(_WIDTH_CLASSES, body),
                        minlength=len(_WIDTH_CLASSES) + 1)
    base = int(np.argmax(sizes[:len(_WIDTH_CLASSES)]))
    low = _WIDTH_CLASSES[base]
    width = int(body.max(initial=1, where=body <= low))
    shape = _matrix_numbers(_field_matrix(buf, ends, body, width), body)
    for high in _WIDTH_CLASSES[base + 1:]:  # parlint: disable=PPR401 -- at most two wider width classes
        rows = np.flatnonzero((body > low) & (body <= high))
        low = high
        if rows.size:
            widths = body[rows]
            matrix = _field_matrix(buf, ends[rows], widths,
                                   int(widths.max()))
            for out, part in zip(shape, _matrix_numbers(matrix, widths)):  # parlint: disable=PPR401 -- six result arrays
                out[rows] = part
    sign = np.where(negative, np.int64(-1), np.int64(1))
    return _Numbers(sign, *shape, fallback=body > _WIDTH_CLASSES[-1])


def parse_int_vector(buf: np.ndarray, offsets: np.ndarray,
                     lengths: np.ndarray,
                     dtype: DataType = DataType.INT64
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised signed decimal integer parsing with range checking."""
    num = _parse_numbers(buf, offsets, lengths)
    values = num.sign * num.mantissa
    lo, hi = _INT_BOUNDS[dtype]
    ok = num.ok & (num.dot_count == 0) & (values >= lo) & (values <= hi) \
        & ~num.fallback
    return np.where(ok, values, np.int64(0)), ok, num.fallback


def parse_float_vector(buf: np.ndarray, offsets: np.ndarray,
                       lengths: np.ndarray,
                       dtype: DataType = DataType.FLOAT64
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised float parsing for ``[+-]digits[.digits]`` literals.

    Fields containing a letter (exponent markers, ``nan``) are flagged
    for scalar fallback rather than parsed here; so are mantissas over
    15 digits (precision).  The fallback enforces the same strict CSV
    grammar, so Python-isms (``inf``/``infinity``, underscore
    separators) are rejected on both paths.
    """
    num = _parse_numbers(buf, offsets, lengths)
    # Beyond 15 significant digits the int64 mantissa is no longer exactly
    # representable in float64, so the divide below would not be correctly
    # rounded; route those to the scalar (strtod) path.
    fallback = num.fallback | num.alpha | (num.digit_count > 15)
    ok = num.ok & ~fallback
    # mantissa and 10**frac_len are both exact in float64 here, so one
    # correctly-rounded division reproduces strtod's result bit for bit.
    # The sign is applied in float space so "-0.0" keeps its sign bit.
    values = num.mantissa / np.power(10.0, num.frac_len)
    values = np.where(num.sign < 0, -values, values)
    return np.where(ok, values, 0.0).astype(dtype.numpy_dtype), ok, fallback


def parse_decimal_vector(buf: np.ndarray, offsets: np.ndarray,
                         lengths: np.ndarray, scale: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised fixed-scale decimal parsing into scaled int64."""
    num = _parse_numbers(buf, offsets, lengths)
    # Total scaled digits must stay within the int64 weight table.
    fallback = num.fallback \
        | (num.digit_count + scale - num.frac_len > 18)
    ok = num.ok & (num.frac_len <= scale) & ~fallback \
        & ((num.dot_count == 0) | (num.frac_len >= 1))
    values = num.sign * num.mantissa \
        * _POW10[np.clip(scale - num.frac_len, 0, 18)]
    return np.where(ok, values, np.int64(0)), ok, fallback


def parse_bool_vector(buf: np.ndarray, offsets: np.ndarray,
                      lengths: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised boolean parsing (1/0, t/f, true/false, common cases)."""
    true = match_literals(buf, offsets, lengths, _TRUE_LITERALS)
    false = match_literals(buf, offsets, lengths, _FALSE_LITERALS)
    return true, true | false, np.zeros(len(lengths), dtype=bool)


def _civil_days_vector(year: np.ndarray, month: np.ndarray,
                       day: np.ndarray) -> np.ndarray:
    """Vectorised days_from_civil (same algorithm as the scalar one)."""
    adjusted = year - (month <= 2)
    era = adjusted // 400
    year_of_era = adjusted - era * 400
    month_shifted = month + np.where(month > 2, -3, 9)
    day_of_year = (153 * month_shifted + 2) // 5 + day - 1
    day_of_era = (year_of_era * 365 + year_of_era // 4
                  - year_of_era // 100 + day_of_year)
    return era * 146097 + day_of_era - 719468


_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31],
                          dtype=np.int64)


def _valid_ymd_vector(year: np.ndarray, month: np.ndarray,
                      day: np.ndarray) -> np.ndarray:
    month_ok = (month >= 1) & (month <= 12)
    safe_month = np.where(month_ok, month, 1)
    limits = _DAYS_IN_MONTH[safe_month - 1].copy()
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    limits = np.where((safe_month == 2) & leap, 29, limits)
    return month_ok & (day >= 1) & (day <= limits)


def _digits_value(matrix: np.ndarray,
                  columns: slice) -> tuple[np.ndarray, np.ndarray]:
    """Integer value of a digit span in a fixed-width matrix + validity."""
    digits = matrix[:, columns] - _ZERO
    return _horner(digits), np.all(digits <= 9, axis=1)


def _parse_exact_width(buf: np.ndarray, offsets: np.ndarray,
                       lengths: np.ndarray, width: int, parse_rows,
                       dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``parse_rows`` over the matrix of the fields of exactly
    ``width`` bytes; every other field is rejected."""
    n = len(lengths)
    values = np.zeros(n, dtype=dtype)
    ok = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(lengths == width)
    row_values, row_ok = parse_rows(_field_matrix(
        buf, offsets[rows] + width, lengths[rows], width))
    ok[rows] = row_ok
    values[rows] = np.where(row_ok, row_values, 0)
    return values, ok, np.zeros(n, dtype=bool)


def _date_days(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Days since the epoch of each row's ``YYYY-MM-DD`` prefix + validity."""
    year, year_ok = _digits_value(matrix, slice(0, 4))
    month, month_ok = _digits_value(matrix, slice(5, 7))
    day, day_ok = _digits_value(matrix, slice(8, 10))
    ok = ((matrix[:, 4] == ord("-")) & (matrix[:, 7] == ord("-"))
          & year_ok & month_ok & day_ok)
    ok &= _valid_ymd_vector(year, month, day)
    return _civil_days_vector(year, month, day), ok


def _timestamp_seconds(matrix: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each ``YYYY-MM-DD HH:MM:SS`` row + validity."""
    days, ok = _date_days(matrix)
    hour, hour_ok = _digits_value(matrix, slice(11, 13))
    minute, minute_ok = _digits_value(matrix, slice(14, 16))
    second, second_ok = _digits_value(matrix, slice(17, 19))
    ok &= ((matrix[:, 10] == ord(" ")) & (matrix[:, 13] == ord(":"))
           & (matrix[:, 16] == ord(":"))
           & hour_ok & minute_ok & second_ok
           & (hour <= 23) & (minute <= 59) & (second <= 59))
    return days * 86400 + hour * 3600 + minute * 60 + second, ok


def parse_date_vector(buf: np.ndarray, offsets: np.ndarray,
                      lengths: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised ``YYYY-MM-DD`` parsing into days since the epoch."""
    return _parse_exact_width(buf, offsets, lengths, 10, _date_days,
                              np.int32)


def parse_timestamp_vector(buf: np.ndarray, offsets: np.ndarray,
                           lengths: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised ``YYYY-MM-DD HH:MM:SS`` parsing into epoch seconds."""
    return _parse_exact_width(buf, offsets, lengths, 19,
                              _timestamp_seconds, np.int64)
