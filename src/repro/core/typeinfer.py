"""Numeric type inference (paper §4.3).

ParPaRaw infers a column's type *after* partitioning, when the column's
symbols lie cohesively in memory: every field determines the minimum
numeric type able to back its value, and a parallel max-reduction over the
widening order yields the column type.  The paper covers numeric types and
notes temporal types as an extension — this reproduction implements both
(INT8 → INT16 → INT32 → INT64 → FLOAT64, plus BOOL/DATE/TIMESTAMP
detection), falling back to STRING when any field fits nothing narrower.
"""

from __future__ import annotations

import numpy as np

from repro.columnar.schema import DataType
from repro.core.css import ColumnIndex
from repro.core.vector_convert import (
    pack_fields,
    parse_bool_vector,
    parse_date_vector,
    parse_float_vector,
    parse_int_vector,
    parse_timestamp_vector,
)

__all__ = ["infer_column_type", "WIDENING_ORDER"]

#: Widening lattice: the inferred type is the max over per-field minima.
WIDENING_ORDER = (
    DataType.BOOL,
    DataType.INT8,
    DataType.INT16,
    DataType.INT32,
    DataType.INT64,
    DataType.FLOAT64,
    DataType.DATE,
    DataType.TIMESTAMP,
    DataType.STRING,
)

_RANK = {dtype: rank for rank, dtype in enumerate(WIDENING_ORDER)}

_INT8_MAX = 2 ** 7 - 1
_INT16_MAX = 2 ** 15 - 1
_INT32_MAX = 2 ** 31 - 1


def _minimum_int_rank(values: np.ndarray) -> np.ndarray:
    """Per-value rank of the narrowest integer type that holds it."""
    ranks = np.full(values.size, _RANK[DataType.INT64], dtype=np.int64)
    ranks[(values >= -(_INT32_MAX + 1)) & (values <= _INT32_MAX)] = \
        _RANK[DataType.INT32]
    ranks[(values >= -(_INT16_MAX + 1)) & (values <= _INT16_MAX)] = \
        _RANK[DataType.INT16]
    ranks[(values >= -(_INT8_MAX + 1)) & (values <= _INT8_MAX)] = \
        _RANK[DataType.INT8]
    return ranks


def infer_column_type(css: np.ndarray, index: ColumnIndex) -> DataType:
    """Infer one column's type from its CSS and field index.

    Each non-empty field is classified bottom-up (bool < ints < float <
    temporal < string); empty fields are neutral.  The column type is the
    maximum classification — the paper's reduction over the minimum
    per-field type.
    """
    keep = index.lengths > 0
    starts = index.offsets[keep]
    lengths = index.lengths[keep]
    if lengths.size == 0:
        return DataType.STRING
    buf, offsets = pack_fields(css, starts, lengths)
    n = lengths.size

    ranks = np.full(n, _RANK[DataType.STRING], dtype=np.int64)

    # Temporal shapes are unambiguous (fixed width with separators), so
    # classify them first; then numerics; bools win only over pure
    # integer-looking 0/1 — match the narrowest.
    _, ts_ok, _ = parse_timestamp_vector(buf, offsets, lengths)
    ranks[ts_ok] = _RANK[DataType.TIMESTAMP]
    _, date_ok, _ = parse_date_vector(buf, offsets, lengths)
    ranks[date_ok] = _RANK[DataType.DATE]

    _, float_ok, float_fb = parse_float_vector(buf, offsets, lengths,
                                               DataType.FLOAT64)
    # Fallback-flagged fields (exponents, nan, long bodies) still count
    # as floats for inference purposes when they are float-shaped; resolve
    # the few of them scalar-ly (which also rejects inf/infinity, keeping
    # inference aligned with the strict conversion grammar).
    if np.any(float_fb):
        from repro.core.scalar_convert import parse_float_scalar
        for i in np.flatnonzero(float_fb):
            lo = int(offsets[i])
            text = buf[lo:lo + int(lengths[i])].tobytes()
            _, float_ok[i] = parse_float_scalar(text)
    ranks[float_ok] = np.minimum(ranks[float_ok], _RANK[DataType.FLOAT64])

    int_values, int_ok, _ = parse_int_vector(buf, offsets, lengths,
                                             DataType.INT64)
    if np.any(int_ok):
        int_ranks = _minimum_int_rank(int_values[int_ok])
        ranks[int_ok] = np.minimum(ranks[int_ok], int_ranks)

    _, bool_ok, _ = parse_bool_vector(buf, offsets, lengths)
    ranks[bool_ok] = np.minimum(ranks[bool_ok], _RANK[DataType.BOOL])

    top = WIDENING_ORDER[int(ranks.max())]
    # The lattice is linear only within the numeric family; a temporal
    # verdict requires EVERY field to parse as that temporal type (a "5"
    # is never a date), otherwise the column falls back to STRING.
    if top is DataType.TIMESTAMP:
        return top if bool(ts_ok.all()) else DataType.STRING
    if top is DataType.DATE:
        return top if bool(date_ok.all()) else DataType.STRING
    return top
