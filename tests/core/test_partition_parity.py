"""Strategy parity: field-run partitioning is bit-identical to radix.

The field-run strategy's acceptance bar: for every dialect, tagging
mode, input and executor schedule, ``partition_field_runs`` over the
tagger's per-segment tags produces exactly the ``PartitionResult`` the
stable radix sort produces over the same tags expanded per symbol — same
``css``, ``record_tags``, ``column_offsets`` and stable ``order``
permutation, the last two derived on demand (``num_field_runs`` is
diagnostic metadata and excluded).
"""

import numpy as np
import pytest

from repro import (
    Dialect,
    ParPaRawParser,
    ParseOptions,
    PartitionStrategy,
    SerialExecutor,
    ShardedExecutor,
)
from repro.core.options import TaggingImpl, TaggingMode
from repro.core.stages import PartitionStage, PipelineContext, \
    RawInput, default_pipeline
from repro.dfa import dialect_dfa
from repro.errors import ParseError
from repro.utils.timing import StepTimer
from tests.conftest import TRICKY_INPUTS, as_uint8
from tests.exec.test_executors import assert_results_match
from tests.kernels.test_parity import DIALECTS

MODES = [TaggingMode.TAGGED, TaggingMode.INLINE, TaggingMode.DELIMITED]


def partition_result(data: bytes, options: ParseOptions, executor=None):
    """Run the pipeline up to (and including) the partition stage."""
    executor = executor or SerialExecutor()
    ctx = PipelineContext(options=options,
                          dfa=dialect_dfa(options.dialect),
                          timer=StepTimer())
    raw = as_uint8(data)
    with executor:
        payload = executor.execute(
            ctx, RawInput(raw=raw, input_bytes=raw.size),
            until="partition")
    return payload.part


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
    @pytest.mark.parametrize(
        "dialect", DIALECTS,
        ids=[f"dialect{i}" for i in range(len(DIALECTS))])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dialects_and_modes(self, dialect, mode):
        for data in TRICKY_INPUTS:
            base = dict(dialect=dialect, tagging_mode=mode, chunk_size=8)
            # Inline/delimited modes reject ragged column counts — the
            # strategies must then agree on the *rejection* too.
            try:
                radix = partition_result(
                    data, ParseOptions(
                        partition_strategy=PartitionStrategy.RADIX,
                        **base))
            except ParseError:
                for strategy in (PartitionStrategy.FIELD_RUN, None):
                    for executor in schedules():
                        with pytest.raises(ParseError):
                            partition_result(data, ParseOptions(
                                partition_strategy=strategy, **base),
                                executor)
                continue
            for strategy in (PartitionStrategy.FIELD_RUN, None):
                for executor in schedules():
                    part = partition_result(
                        data, ParseOptions(partition_strategy=strategy,
                                           **base), executor)
                    assert_parts_identical(radix, part)

    def test_chunked_tagging_impl(self):
        """The paper-faithful chunked tagger pairs with the radix sort:
        an explicit field-run request is rejected up front with an
        actionable error, and auto resolves to radix with bit-identical
        partitions."""
        base = dict(dialect=Dialect(strip_carriage_return=False),
                    tagging_impl=TaggingImpl.CHUNKED, chunk_size=8)
        with pytest.raises(ParseError, match="field-run"):
            ParseOptions(partition_strategy=PartitionStrategy.FIELD_RUN,
                         **base)
        for data in TRICKY_INPUTS:
            radix = partition_result(
                data, ParseOptions(
                    partition_strategy=PartitionStrategy.RADIX, **base))
            auto = partition_result(data, ParseOptions(**base))
            assert_parts_identical(radix, auto)

    @pytest.mark.parametrize("workers,shard_bytes", [(2, 64), (3, 48)])
    def test_sharded_schedule(self, workers, shard_bytes):
        """The sharded executor resolves the same strategy and produces
        the same partition as the serial schedule."""
        dialect = Dialect(strip_carriage_return=False)
        for data in TRICKY_INPUTS:
            for strategy in (PartitionStrategy.RADIX,
                             PartitionStrategy.FIELD_RUN, None):
                options = ParseOptions(dialect=dialect, chunk_size=8,
                                       partition_strategy=strategy)
                serial = partition_result(data, options)
                sharded = partition_result(
                    data, options,
                    executor=ShardedExecutor(workers=workers,
                                             shard_bytes=shard_bytes,
                                             use_processes=False))
                assert_parts_identical(serial, sharded)

    @pytest.mark.parametrize("strategy",
                             [PartitionStrategy.FIELD_RUN,
                              PartitionStrategy.RADIX])
    def test_end_to_end_tables_match_sharded(self, strategy):
        executor = ShardedExecutor(workers=2, shard_bytes=64,
                                   use_processes=False)
        with executor:
            for data in TRICKY_INPUTS:
                assert_results_match(
                    data,
                    ParseOptions(
                        dialect=Dialect(strip_carriage_return=False),
                        chunk_size=8, partition_strategy=strategy),
                    executor)


class TestStrategyResolution:
    def test_auto_field_run_for_global_tagging(self):
        strategy = PartitionStage.resolve_strategy(ParseOptions())
        assert strategy is PartitionStrategy.FIELD_RUN

    def test_auto_radix_for_chunked_tagging(self):
        options = ParseOptions(tagging_impl=TaggingImpl.CHUNKED)
        assert PartitionStage.resolve_strategy(options) \
            is PartitionStrategy.RADIX

    def test_explicit_choice_wins(self):
        options = ParseOptions(partition_strategy=PartitionStrategy.RADIX)
        assert PartitionStage.resolve_strategy(options) \
            is PartitionStrategy.RADIX

    def test_options_coerce_strings(self):
        assert ParseOptions(partition_strategy="field-run") \
            .partition_strategy is PartitionStrategy.FIELD_RUN
        assert ParseOptions(partition_strategy="radix") \
            .partition_strategy is PartitionStrategy.RADIX

    def test_options_reject_unknown_strategy(self):
        with pytest.raises(ParseError):
            ParseOptions(partition_strategy="quicksort")

    def test_metrics_record_strategy(self):
        from repro.core.parser import parse_bytes
        from repro.obs import MetricsRegistry
        dialect = Dialect(strip_carriage_return=False)
        metrics = MetricsRegistry()
        parse_bytes(b"a,b\nc,d\n", metrics=metrics,
                    options=ParseOptions(
                        dialect=dialect,
                        partition_strategy=PartitionStrategy.FIELD_RUN))
        assert metrics.gauges["stage.partition.strategy"] == 1.0
        assert metrics.gauges["partition.fields"] > 0

        metrics = MetricsRegistry()
        parse_bytes(b"a,b\nc,d\n", metrics=metrics,
                    options=ParseOptions(
                        dialect=dialect,
                        partition_strategy=PartitionStrategy.RADIX))
        assert metrics.gauges["stage.partition.strategy"] == 0.0
        assert "partition.fields" not in metrics.gauges


class TestOnDemandPermutation:
    """The default path (global tagging, record-tagged mode, field-run)
    never materialises the per-symbol ``order``/``record_tags``; asking
    for them afterwards still returns the radix sort's values."""

    DATA = b'a,"b\nc",d\ne,f,g\nh,i\n"unclosed'

    @pytest.mark.parametrize("schedule", [0, 1], ids=["serial", "sharded"])
    def test_default_parse_never_builds_order(self, schedule):
        executor = schedules()[schedule]
        options = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                               chunk_size=8)
        part = partition_result(self.DATA, options, executor)
        assert part._order is None and part._record_tags is None
        radix = partition_result(self.DATA, options.with_(
            partition_strategy=PartitionStrategy.RADIX))
        assert_parts_identical(radix, part)

    def test_default_payload_carries_no_symbol_ids(self):
        ctx = PipelineContext(options=ParseOptions(), dfa=dialect_dfa(
            ParseOptions().dialect), timer=StepTimer())
        raw = as_uint8(self.DATA)
        payload = SerialExecutor().execute(
            ctx, RawInput(raw=raw, input_bytes=raw.size), until="partition")
        assert not hasattr(payload, "col_ids")
        assert not hasattr(payload, "rec_ids")
        assert payload.delim_mask is None and payload.aux_delims is None
        assert payload.segment_columns.size \
            == payload.delim_positions.size + 1
        # Converting reads the field geometry, never the permutation.
        out = default_pipeline().run(ctx, payload, start="convert")
        assert out.num_rows == 4
        assert payload.part._order is None
        assert payload.part._record_tags is None
