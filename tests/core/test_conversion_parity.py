"""Property test: the vector converters match the scalar oracle.

:func:`~repro.core.parser.parse_bytes` converts every column with the
vector parsers of :mod:`repro.core.vector_convert`;
:class:`~repro.baselines.SequentialParser` converts every field with
the scalar reference converters.  The two are different code paths over
the same grammar, so for ANY input they must produce identical columns,
validity masks and reject counts.  Inferred-type cases hand the
sequential parser the schema ParPaRaw inferred.  The strategy
deliberately covers the awkward corners: empty fields, null literals,
records with deviating column counts, Python-ism numerics
(``inf``/``1_000``) that both paths must reject in lockstep.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SequentialParser
from repro.core.options import ColumnCountPolicy, ParseOptions
from repro.core.parser import parse_bytes

NULLS = ("NA", "null")

field_text = st.one_of(
    st.just(b""),                                    # empty field
    st.sampled_from([b"NA", b"null"]),               # null literals
    st.integers(-10 ** 12, 10 ** 12).map(lambda v: str(v).encode()),
    st.floats(allow_nan=False, allow_infinity=False)
      .map(lambda v: repr(v).encode()),
    st.sampled_from([b"1e5", b"2.5E-2", b"nan", b"007", b"-0", b".5"]),
    # Python-isms: accepted by float()/int(), must be STRING-ed by both.
    st.sampled_from([b"inf", b"-infinity", b"Infinity", b"1_000",
                     b"1_0.5", b"1_0e2"]),
    st.sampled_from([b"true", b"False", b"2019-03-01", b"abc", b"x y"]),
    st.text(alphabet="abcdefgh0123456789.-+ ", max_size=6)
      .map(str.encode),
)

records = st.lists(
    st.lists(field_text, min_size=1, max_size=5),     # deviating counts
    min_size=0, max_size=12)


def render_csv(rows: list[list[bytes]]) -> bytes:
    return b"".join(b",".join(fields) + b"\n" for fields in rows)


def parse_both(data: bytes, **kwargs):
    """(scalar oracle table, vector-path table) for one input."""
    options = ParseOptions(null_literals=NULLS,
                           column_count_policy=ColumnCountPolicy.LENIENT,
                           **kwargs)
    vectorized = parse_bytes(data, options).table
    if options.infer_types:
        options = options.with_(schema=vectorized.schema, infer_types=False)
    return SequentialParser(options).parse(data), vectorized


def assert_tables_identical(ts, tv):
    assert [f.dtype for f in ts.schema] == [f.dtype for f in tv.schema]
    assert ts.num_rows == tv.num_rows
    for cs, cv in zip(ts.columns, tv.columns):
        assert cs.validity.to_mask().tolist() \
            == cv.validity.to_mask().tolist()
        if cs.field.dtype.is_variable_width:
            assert cs.to_list() == cv.to_list()
        else:
            vs = np.asarray(cs.data)
            vv = np.asarray(cv.data)
            mask = cs.validity.to_mask()
            np.testing.assert_array_equal(vs[mask], vv[mask])
        assert cs.rejects == cv.rejects


class TestScalarVectorizedParity:
    @given(records)
    @settings(max_examples=120, deadline=None)
    def test_inferred_types_and_columns_identical(self, rows):
        data = render_csv(rows)
        scalar, vectorized = parse_both(data, infer_types=True)
        assert_tables_identical(scalar, vectorized)

    @given(records)
    @settings(max_examples=60, deadline=None)
    def test_string_columns_identical(self, rows):
        data = render_csv(rows)
        scalar, vectorized = parse_both(data)
        assert_tables_identical(scalar, vectorized)

    def test_pythonisms_infer_string_on_both_paths(self):
        data = b"inf\n-Infinity\n1_000\n1_0e2\n"
        scalar, vectorized = parse_both(data, infer_types=True)
        for table in (scalar, vectorized):
            (field,) = table.schema
            assert field.dtype.value == "string"
        assert_tables_identical(scalar, vectorized)

    def test_nan_still_floats_on_both_paths(self):
        data = b"nan\n1.5\nNaN\n"
        scalar, vectorized = parse_both(data, infer_types=True)
        for table in (scalar, vectorized):
            (field,) = table.schema
            assert field.dtype.value == "float64"
        assert_tables_identical(scalar, vectorized)
