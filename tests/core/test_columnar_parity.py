"""Convert parity: zero-copy and copying assembly both match the reference.

Convert emits zero-copy buffers — string columns slice the partition's
CSS, fully-populated fixed-width columns adopt the parsed value vector —
whenever the fields allow it, and copies otherwise: a matching NULL
literal punches holes into the CSS tiling, and a non-empty string
default has bytes the CSS does not hold.  Either assembly must produce
exactly the sequential reference parser's table for every dialect,
tagging mode, input and executor schedule.  String columns on the
zero-copy path must additionally share the partition's CSS buffer.
"""

import numpy as np
import pytest

from repro import (
    Dialect,
    ParPaRawParser,
    ParseOptions,
    SerialExecutor,
    ShardedExecutor,
)
from repro.baselines import SequentialParser
from repro.columnar import DataType, Field, Schema
from repro.core.options import TaggingMode
from repro.core.stages import ConvertStage, PipelineContext, RawInput
from repro.dfa import dialect_dfa
from repro.errors import ParseError
from repro.utils.timing import StepTimer
from tests.conftest import TRICKY_INPUTS, as_uint8
from tests.kernels.test_parity import DIALECTS

MODES = [TaggingMode.TAGGED, TaggingMode.INLINE, TaggingMode.DELIMITED]


def string_defaults(width: int, default: str = "n/a") -> Schema:
    return Schema([Field(f"col{i}", DataType.STRING, default=default)
                   for i in range(width)])


#: Option sets per assembly path: the defaults (zero-copy wherever the
#: fields tile the CSS), NULL literals that match tricky-input fields,
#: and a non-empty string default (both force the copying assembly).
PATHS = [{}, {"null_literals": ("a", "1")},
         {"schema": string_defaults(3)}]


def parse_table(data: bytes, options: ParseOptions, executor=None):
    parser = ParPaRawParser(options, executor=executor)
    return parser.parse(data).table


def assert_matches_reference(data: bytes, options: ParseOptions,
                             executor=None) -> None:
    try:
        got = parse_table(data, options, executor)
    except ParseError as exc:
        # Inline/delimited modes refuse varying column counts (§4.1);
        # the sequential reference has no tagging modes to refuse with.
        assert options.tagging_mode is not TaggingMode.TAGGED, data
        assert "constant number of columns" in str(exc), data
        return
    expected = SequentialParser(options).parse(data)
    assert got.to_pylist() == expected.to_pylist(), data
    assert got == expected, data


class TestFusedParity:
    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dialects_and_modes(self, dialect, mode):
        for extra in PATHS:
            options = ParseOptions(dialect=dialect, tagging_mode=mode,
                                   **extra)
            for data in TRICKY_INPUTS:
                assert_matches_reference(data, options)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_sharded_matches_serial_legacy(self, mode):
        for extra in PATHS:
            options = ParseOptions(dialect=Dialect.csv(), tagging_mode=mode,
                                   **extra)
            for data in TRICKY_INPUTS:
                assert_matches_reference(data, options, ShardedExecutor(
                    workers=2, shard_bytes=64, use_processes=False))

    def test_null_literals_and_defaults_parity(self):
        data = (b"alpha,1,x\n"
                b"NA,2,y\n"
                b"gamma,NA,\n"
                b",4,NA\n")
        for extra in ({}, {"schema": string_defaults(3, "?")}):
            options = ParseOptions(dialect=Dialect.csv(),
                                   null_literals=("NA",), **extra)
            assert_matches_reference(data, options)


class TestZeroCopyStrings:
    def _converted(self, data: bytes, options: ParseOptions):
        """Partition and convert within ONE pipeline execution."""
        executor = SerialExecutor()
        ctx = PipelineContext(options=options,
                              dfa=dialect_dfa(options.dialect),
                              timer=StepTimer())
        raw = as_uint8(data)
        with executor:
            payload = executor.execute(
                ctx, RawInput(raw=raw, input_bytes=raw.size),
                until="partition")
        converted = ConvertStage().run(ctx, payload)
        return payload, converted

    def test_string_columns_share_css_memory(self):
        data = (b"alpha,bravo,charlie\n"
                b"delta,echo,foxtrot\n"
                b"golf,hotel,india\n")
        options = ParseOptions(dialect=Dialect.csv())
        payload, converted = self._converted(data, options)
        strings = [c for c in converted.table.columns
                   if c.field.dtype is DataType.STRING]
        assert strings, "expected string columns in the inferred schema"
        for column in strings:
            assert np.shares_memory(column.data, payload.css)
        assert converted.convert_stats.zero_copy_columns == len(strings)
        assert converted.convert_stats.bytes_copied == 0

    def test_copy_path_does_not_share_css_memory(self):
        data = b"alpha,bravo\ncharlie,delta\necho,foxtrot\n"
        # A non-empty default, or NULL literals leaving a hole mid-column.
        for extra in ({"schema": string_defaults(2)},
                      {"null_literals": ("charlie", "delta")}):
            options = ParseOptions(dialect=Dialect.csv(), **extra)
            payload, converted = self._converted(data, options)
            for column in converted.table.columns:
                assert not np.shares_memory(column.data, payload.css)
            assert converted.convert_stats.zero_copy_columns == 0
            assert converted.convert_stats.bytes_copied > 0

    def test_fused_and_copy_stats_cover_all_columns(self):
        data = b"alpha,1\nbravo,2\ncharlie,3\n"
        options = ParseOptions(dialect=Dialect.csv(), infer_types=True)
        _, converted = self._converted(data, options)
        stats = converted.convert_stats
        # One string column is zero-copy; the fused int column writes its
        # values straight into the output buffer, so nothing is re-copied.
        assert stats.zero_copy_columns == 1
        assert stats.bytes_copied == 0
