"""Executor equivalence: the sharded backend must be invisible.

For any input, any shard size (including shards smaller than a chunk),
any worker count — :class:`ShardedExecutor` must produce results
bit-identical to :class:`SerialExecutor`, which in turn is cross-checked
against the stdlib ``csv`` oracle on inputs where the semantics are
comparable.  Shard boundaries are arbitrary byte positions: the
composition scan resolves a shard entering mid-record, mid-quote or
mid-field exactly like it resolves a chunk doing the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ColumnCountPolicy,
    Dialect,
    ParPaRawParser,
    ParseOptions,
    Schema,
    StreamingParser,
    TaggingMode,
)
from repro.baselines import stdlib_csv_rows
from repro.core.chunking import Chunking
from repro.core.stages import PipelineContext, RawInput
from repro.reference.core.tagging import tag_chunked
from repro.dfa.logformats import common_log_format_dfa, \
    extended_log_format_dfa
from repro.exec import SerialExecutor, ShardedExecutor
from repro.workloads import (
    CsvGenerator,
    TAXI_SCHEMA,
    YELP_SCHEMA,
    generate_clf,
    generate_elf,
    generate_taxi_like,
    generate_yelp_like,
    skew_dataset,
)
from repro.utils.timing import StepTimer
from tests.conftest import TRICKY_INPUTS, as_uint8

NO_CR = Dialect(strip_carriage_return=False)

#: (workers, shard_bytes) shapes: shard smaller than the chunk size,
#: equal to it, larger but misaligned, and the even worker split.
SHARD_SHAPES = [
    (1, None),
    (2, None),
    (4, None),
    (2, 3),       # far smaller than any chunk
    (3, 5),
    (2, 8),       # == chunk_size used by the matrix tests
    (4, 21),      # larger than a chunk, not a multiple of it
    (2, 1 << 14),  # one shard swallows everything
]


def sharded(workers: int, shard_bytes: int | None) -> ShardedExecutor:
    """Inline-mode sharded executor: full shard data path, no pool."""
    return ShardedExecutor(workers=workers, shard_bytes=shard_bytes,
                           use_processes=False)


def assert_results_match(data: bytes, options: ParseOptions,
                         executor: ShardedExecutor):
    serial = ParPaRawParser(options).parse(data)
    parallel = ParPaRawParser(options, executor=executor).parse(data)
    assert parallel.table.to_pylist() == serial.table.to_pylist()
    assert parallel.num_records == serial.num_records
    assert parallel.num_rows == serial.num_rows
    assert parallel.rejected_records == serial.rejected_records
    assert parallel.validation.final_state == serial.validation.final_state
    assert parallel.validation.invalid_position \
        == serial.validation.invalid_position
    assert parallel.validation.end_accepted == serial.validation.end_accepted
    np.testing.assert_array_equal(parallel.validation.field_counts,
                                  serial.validation.field_counts)
    return parallel


class TestTrickyCorpus:
    @pytest.mark.parametrize("workers,shard_bytes", SHARD_SHAPES)
    def test_all_tricky_inputs(self, workers, shard_bytes):
        executor = sharded(workers, shard_bytes)
        for data in TRICKY_INPUTS:
            assert_results_match(data, ParseOptions(dialect=NO_CR,
                                                    chunk_size=8),
                                 executor)

    def test_empty_input(self):
        for workers, shard_bytes in SHARD_SHAPES:
            result = assert_results_match(
                b"", ParseOptions(dialect=NO_CR, chunk_size=8),
                sharded(workers, shard_bytes))
            assert result.num_records == 0

    def test_unterminated_trailing_record(self):
        data = b'head,er\n1,"two\nlines"\ntail,"unclosed quote'
        for workers, shard_bytes in SHARD_SHAPES:
            result = assert_results_match(
                data, ParseOptions(dialect=NO_CR, chunk_size=8),
                sharded(workers, shard_bytes))
            assert result.num_records == 3
            assert not result.validation.end_accepted

    def test_merged_tags_equal_chunked_oracle(self):
        """The shards' emissions, merged and tagged in the parent, carry
        the segment tags the paper's chunked tagger (per-chunk offsets +
        cross-chunk scans, ``tag_chunked``) computes over the whole
        emission stream — and that stream is the serial schedule's."""
        options = ParseOptions(dialect=NO_CR, chunk_size=4)
        ctx = PipelineContext(options=options, dfa=options.resolved_dfa(),
                              timer=StepTimer())
        for data in TRICKY_INPUTS:
            payload = RawInput(raw=as_uint8(data))
            serial = SerialExecutor().execute(ctx, payload,
                                              until="tag").tags
            oracle = tag_chunked(serial.emissions, serial.final_state,
                                 Chunking.of(len(data), options.chunk_size))
            for workers, shard_bytes in SHARD_SHAPES:
                with sharded(workers, shard_bytes) as executor:
                    merged = executor.execute(ctx, payload,
                                              until="tag").tags
                np.testing.assert_array_equal(merged.emissions,
                                              serial.emissions)
                assert merged.final_state == oracle.final_state
                np.testing.assert_array_equal(merged.delim_positions,
                                              oracle.delim_positions)
                np.testing.assert_array_equal(merged.segment_records,
                                              oracle.segment_records)
                np.testing.assert_array_equal(merged.segment_columns,
                                              oracle.segment_columns)
                assert merged.num_records == oracle.num_records
                assert merged.has_trailing_record \
                    == oracle.has_trailing_record


class TestOptionsZoo:
    """Sharding composes with every §4 capability switch."""

    UNIFORM = b"10,alpha,1.5\n20,beta,2.5\n30,gamma,3.5\n40,delta,4.5\n"

    @pytest.mark.parametrize("options", [
        ParseOptions(dialect=NO_CR, chunk_size=8,
                     tagging_mode=TaggingMode.INLINE),
        ParseOptions(dialect=NO_CR, chunk_size=8,
                     tagging_mode=TaggingMode.DELIMITED),
        ParseOptions(dialect=NO_CR, chunk_size=8, infer_types=True),
        ParseOptions(dialect=NO_CR, chunk_size=8,
                     select_columns=(0, 2)),
        ParseOptions(dialect=NO_CR, chunk_size=8,
                     skip_rows=frozenset({1})),
        ParseOptions(dialect=NO_CR, chunk_size=8,
                     skip_records=frozenset({0, 2})),
        ParseOptions(dialect=NO_CR, chunk_size=8,
                     null_literals=("beta",)),
        ParseOptions(dialect=NO_CR, chunk_size=8,
                     schema=Schema.all_strings(3),
                     column_count_policy=ColumnCountPolicy.REJECT),
    ], ids=["inline", "delimited", "infer", "select", "skip-rows",
            "skip-records", "nulls", "reject"])
    def test_option_equivalence(self, options):
        for workers, shard_bytes in ((2, 5), (3, 17), (4, None)):
            assert_results_match(self.UNIFORM, options,
                                 sharded(workers, shard_bytes))

    def test_comment_dialect(self):
        data = b"# leading comment\na,b\n# interlude\nc,d\n"
        options = ParseOptions(dialect=Dialect.csv_with_comments(),
                               chunk_size=8)
        for workers, shard_bytes in ((2, 3), (3, 7)):
            assert_results_match(data, options, sharded(workers,
                                                        shard_bytes))


class TestWorkloadGenerators:
    """Acceptance bar: identical results on every generator in
    :mod:`repro.workloads`."""

    def test_yelp_like(self):
        data = generate_yelp_like(96_000)
        options = ParseOptions(schema=YELP_SCHEMA)
        assert_results_match(data, options, sharded(4, None))
        assert_results_match(data, options, sharded(2, 10_001))

    def test_taxi_like(self):
        data = generate_taxi_like(64_000)
        options = ParseOptions(schema=TAXI_SCHEMA)
        assert_results_match(data, options, sharded(4, None))

    def test_skew(self):
        data = skew_dataset(b"1,short\n2,rows\n", 5_000)
        assert_results_match(data, ParseOptions(), sharded(3, 999))

    def test_clf(self):
        data = generate_clf(200)
        options = ParseOptions(dfa=common_log_format_dfa())
        assert_results_match(data, options, sharded(4, 1_000))

    def test_elf(self):
        data = generate_elf(200, directive_every=10)
        options = ParseOptions(dfa=extended_log_format_dfa())
        assert_results_match(data, options, sharded(4, 1_000))

    def test_csv_generator(self):
        gen = CsvGenerator(seed=13, num_columns=5, numeric_columns=(0, 3),
                           embedded_delim_probability=0.5)
        data = gen.generate(300)
        assert_results_match(data, ParseOptions(infer_types=True),
                             sharded(4, 777))

    def test_stdlib_csv_oracle(self):
        """Serial, sharded and the third-party oracle all agree."""
        gen = CsvGenerator(seed=21, num_columns=4, empty_probability=0.0)
        data = gen.generate(250)
        expected = stdlib_csv_rows(data)
        for executor in (SerialExecutor(), sharded(3, 512)):
            result = ParPaRawParser(ParseOptions(),
                                    executor=executor).parse(data)
            rows = [["" if value is None else value
                     for value in row.values()]
                    for row in result.table.to_pylist()]
            assert rows == expected


class TestPropertyEquivalence:
    @given(st.text(alphabet=st.sampled_from(list('ab",\n')), max_size=150),
           st.integers(1, 40), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_random_csvish(self, text, shard_bytes, workers):
        data = text.encode()
        assert_results_match(data,
                             ParseOptions(dialect=NO_CR, chunk_size=7),
                             sharded(workers, shard_bytes))

    @given(st.binary(max_size=120), st.integers(1, 23))
    @settings(max_examples=75, deadline=None)
    def test_arbitrary_bytes(self, data, shard_bytes):
        data = data.replace(b"\r", b"")  # quote-free CR semantics aside
        assert_results_match(data,
                             ParseOptions(dialect=NO_CR, chunk_size=5),
                             sharded(3, shard_bytes))


class TestProcessPool:
    """The real multiprocess path (the inline tests cover the math)."""

    def test_tricky_corpus_with_processes(self):
        with ShardedExecutor(workers=2, shard_bytes=6) as executor:
            for data in TRICKY_INPUTS:
                assert_results_match(
                    data, ParseOptions(dialect=NO_CR, chunk_size=8),
                    executor)

    def test_yelp_with_processes(self):
        data = generate_yelp_like(64_000)
        with ShardedExecutor(workers=2) as executor:
            assert_results_match(data, ParseOptions(schema=YELP_SCHEMA),
                                 executor)

    def test_pool_reuse_across_parses(self):
        with ShardedExecutor(workers=2, shard_bytes=16) as executor:
            parser = ParPaRawParser(executor=executor)
            first = parser.parse(b"a,b\nc,d\n" * 20)
            pool = executor._pool
            second = parser.parse(b"e,f\ng,h\n" * 20)
            assert executor._pool is pool
            assert first.num_rows == second.num_rows == 40


class TestStreamingWithExecutors:
    def test_streamed_sharded_equals_whole_serial(self):
        gen = CsvGenerator(seed=5, num_columns=3,
                           embedded_delim_probability=0.6)
        data = gen.generate(200)
        options = ParseOptions(schema=Schema.all_strings(3))
        whole = ParPaRawParser(options).parse(data).table.to_pylist()

        stream = StreamingParser(options, executor=sharded(3, 257))
        for start in range(0, len(data), 997):
            stream.feed(data[start:start + 997])
        assert stream.finish().to_pylist() == whole
