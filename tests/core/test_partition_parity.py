"""Pipeline partition parity against the stable radix-sort oracle.

The partition stage's acceptance bar: for every dialect, tagging mode,
input and executor schedule, the pipeline's partition (field runs over
the tagger's per-segment tags) is exactly the ``PartitionResult`` that
the oracle :func:`~repro.reference.core.partition.partition_by_column` —
the paper's stable radix sort — produces over the validate payload's
segment tags expanded per symbol: same ``css``, ``record_tags``,
``column_offsets`` and stable ``order`` permutation, the last two
derived on demand on the pipeline side (``num_field_runs`` is diagnostic
metadata and excluded).
"""

import numpy as np
import pytest

from repro import (
    Dialect,
    ParseOptions,
    SerialExecutor,
    ShardedExecutor,
)
from repro.core.options import TaggingMode
from repro.reference.core.partition import partition_by_column
from repro.core.stages import PipelineContext, RawInput, \
    default_pipeline
from repro.core.tagging import segment_lengths
from repro.core.tagging_modes import prepare_css
from repro.dfa import dialect_dfa
from repro.errors import ParseError
from repro.utils.timing import StepTimer
from tests.conftest import TRICKY_INPUTS, as_uint8
from tests.exec.test_executors import assert_results_match
from tests.kernels.test_parity import DIALECTS

MODES = [TaggingMode.TAGGED, TaggingMode.INLINE, TaggingMode.DELIMITED]


def run_until(data: bytes, options: ParseOptions, until: str,
              executor=None):
    """Run the pipeline up to (and including) stage ``until``."""
    executor = executor or SerialExecutor()
    ctx = PipelineContext(options=options,
                          dfa=dialect_dfa(options.dialect),
                          timer=StepTimer())
    raw = as_uint8(data)
    with executor:
        return executor.execute(ctx, RawInput(raw=raw), until=until)


def partition_result(data: bytes, options: ParseOptions, executor=None):
    """The pipeline's partition on ``executor`` (serial by default)."""
    return run_until(data, options, "partition", executor).part


def radix_oracle(data: bytes, options: ParseOptions):
    """The radix sort over the serial validate payload's segment tags,
    expanded per symbol, with the stage's CSS post-processing applied
    (so the oracle rejects what the stage rejects)."""
    payload = run_until(data, options, "validate")
    lengths = segment_lengths(payload.delim_positions,
                              payload.data_ext.size)
    part = partition_by_column(
        payload.data_ext, payload.keep,
        np.repeat(payload.segment_columns, lengths),
        np.repeat(payload.segment_records, lengths),
        payload.selection.num_columns)
    prepare_css(options.tagging_mode, part, payload.delim_mask, options)
    return part


def assert_parts_identical(a, b):
    np.testing.assert_array_equal(a.css, b.css)
    np.testing.assert_array_equal(a.record_tags, b.record_tags)
    np.testing.assert_array_equal(a.column_offsets, b.column_offsets)
    np.testing.assert_array_equal(a.order, b.order)
    assert a.num_columns == b.num_columns


def schedules():
    """The serial schedule and a sharded one with sub-chunk shards."""
    return (SerialExecutor(),
            ShardedExecutor(workers=2, shard_bytes=5, use_processes=False))


class TestStrategyParity:
    """The pipeline's field-run partition vs the radix-sort oracle."""

    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dialects_and_modes(self, dialect, mode):
        for data in TRICKY_INPUTS:
            options = ParseOptions(dialect=dialect, tagging_mode=mode,
                                   chunk_size=8)
            # Inline/delimited modes reject ragged column counts — the
            # pipeline must then reject on every executor too.
            try:
                radix = radix_oracle(data, options)
            except ParseError:
                for executor in schedules():
                    with pytest.raises(ParseError):
                        partition_result(data, options, executor)
                continue
            for executor in schedules():
                assert_parts_identical(
                    radix, partition_result(data, options, executor))

    @pytest.mark.parametrize("workers,shard_bytes", [(2, 64), (3, 48)])
    def test_sharded_schedule(self, workers, shard_bytes):
        """The sharded executor produces the serial schedule's partition,
        and both match the oracle."""
        options = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                               chunk_size=8)
        for data in TRICKY_INPUTS:
            serial = partition_result(data, options)
            sharded = partition_result(
                data, options,
                executor=ShardedExecutor(workers=workers,
                                         shard_bytes=shard_bytes,
                                         use_processes=False))
            assert_parts_identical(serial, sharded)
            assert_parts_identical(radix_oracle(data, options), sharded)

    def test_end_to_end_tables_match_sharded(self):
        executor = ShardedExecutor(workers=2, shard_bytes=64,
                                   use_processes=False)
        with executor:
            for data in TRICKY_INPUTS:
                assert_results_match(
                    data,
                    ParseOptions(
                        dialect=Dialect(strip_carriage_return=False),
                        chunk_size=8),
                    executor)


class TestPartitionMetrics:
    def test_metrics_record_field_runs(self):
        from repro.core.parser import parse_bytes
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        parse_bytes(b"a,b\nc,d\n", metrics=metrics,
                    options=ParseOptions(
                        dialect=Dialect(strip_carriage_return=False)))
        assert metrics.gauges["partition.fields"] == 4
        # One partition strategy: no gauge reports which one ran.
        assert "stage.partition.strategy" not in metrics.gauges


class TestOnDemandPermutation:
    """The default path (record-tagged mode) never materialises the
    per-symbol ``order``/``record_tags``; asking for them afterwards
    still returns the radix sort's values."""

    DATA = b'a,"b\nc",d\ne,f,g\nh,i\n"unclosed'

    @pytest.mark.parametrize("schedule", [0, 1], ids=["serial", "sharded"])
    def test_default_parse_never_builds_order(self, schedule):
        executor = schedules()[schedule]
        options = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                               chunk_size=8)
        part = partition_result(self.DATA, options, executor)
        assert part._order is None and part._record_tags is None
        assert_parts_identical(radix_oracle(self.DATA, options), part)

    def test_default_payload_carries_no_symbol_ids(self):
        validated = run_until(self.DATA, ParseOptions(), "validate")
        assert validated.delim_mask is None
        assert validated.segment_columns.size \
            == validated.delim_positions.size + 1
        ctx = PipelineContext(options=ParseOptions(), dfa=dialect_dfa(
            ParseOptions().dialect), timer=StepTimer())
        payload = SerialExecutor().execute(
            ctx, RawInput(raw=as_uint8(self.DATA)), until="partition")
        assert not hasattr(payload, "col_ids")
        assert not hasattr(payload, "rec_ids")
        assert payload.aux_delims is None
        # Converting reads the field geometry, never the permutation.
        out = default_pipeline().run(ctx, payload, start="convert")
        assert out.selection.num_rows == 4
        assert payload.part._order is None
        assert payload.part._record_tags is None
