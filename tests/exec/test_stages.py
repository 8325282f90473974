"""The stage pipeline: structure, contracts, and timing behaviour."""

import numpy as np
import pytest

from repro import ParPaRawParser, ParseOptions
from repro.core.stages import (
    ChunkedInput,
    ConvertedOutput,
    PipelineContext,
    RawInput,
    StagePipeline,
    TaggedInput,
    default_pipeline,
)
from repro.core.tagging import tag_global
from repro.exec import SerialExecutor, ShardedExecutor
from repro.reference.core.tagging import symbol_ids
from repro.utils.timing import StepTimer

DATA = b'a,b\n"x,y",2\n1,2\n'


def make_ctx(options: ParseOptions | None = None) -> PipelineContext:
    options = options or ParseOptions()
    return PipelineContext(options=options, dfa=options.resolved_dfa(),
                           timer=StepTimer())


def raw_payload(data: bytes) -> RawInput:
    raw = np.frombuffer(data, dtype=np.uint8)
    return RawInput(raw=raw)


class TestPipelineStructure:
    def test_stage_names_in_paper_order(self):
        assert default_pipeline().stage_names == (
            "prune", "chunk", "stv", "scan", "tag", "validate",
            "partition", "convert")

    def test_timer_steps_are_the_paper_vocabulary(self):
        steps = {stage.name: stage.timer_step
                 for stage in default_pipeline().stages}
        assert steps == {
            "prune": "prune",
            "chunk": None,
            "stv": "parse",
            "scan": "scan",
            "tag": "tag",
            "validate": None,
            "partition": "partition",
            "convert": "convert",
        }

    def test_declared_payload_types_chain(self):
        stages = default_pipeline().stages
        for producer, consumer in zip(stages, stages[1:]):
            assert issubclass(producer.output_type, consumer.input_type), \
                (producer.name, consumer.name)

    def test_unknown_stage_name_raises(self):
        with pytest.raises(KeyError):
            default_pipeline().stage("fuse")

    def test_until_before_start_raises(self):
        with pytest.raises(ValueError):
            default_pipeline().run(make_ctx(), raw_payload(DATA),
                                   start="tag", until="chunk")

    def test_duplicate_stage_names_rejected(self):
        stage = default_pipeline().stage("chunk")
        with pytest.raises(ValueError):
            StagePipeline([stage, stage])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            StagePipeline([])


class TestPartialExecution:
    def test_until_chunk_yields_grid(self):
        ctx = make_ctx()
        payload = default_pipeline().run(ctx, raw_payload(DATA),
                                         until="chunk")
        assert isinstance(payload, ChunkedInput)
        assert payload.groups.shape[1] == ctx.options.chunk_size

    def test_until_tag_matches_direct_tagging(self):
        ctx = make_ctx(ParseOptions(chunk_size=5))
        payload = default_pipeline().run(ctx, raw_payload(DATA),
                                         until="tag")
        assert isinstance(payload, TaggedInput)
        # Independent oracle: global tagging over the serial emissions.
        full = default_pipeline().run(make_ctx(ParseOptions(chunk_size=5)),
                                      raw_payload(DATA), until="tag")
        oracle = tag_global(full.tags.emissions, full.tags.final_state)
        for ids, expected in zip(symbol_ids(payload.tags),
                                 symbol_ids(oracle)):
            np.testing.assert_array_equal(ids, expected)

    def test_resume_from_validate(self):
        ctx = make_ctx()
        tagged = default_pipeline().run(ctx, raw_payload(DATA), until="tag")
        out = default_pipeline().run(ctx, tagged, start="validate")
        assert isinstance(out, ConvertedOutput)
        assert out.selection.num_rows == 3

    def test_executor_until_tag(self):
        for executor in (SerialExecutor(),
                         ShardedExecutor(workers=2, shard_bytes=4,
                                         use_processes=False)):
            tagged = executor.execute(make_ctx(), raw_payload(DATA),
                                      until="tag")
            assert isinstance(tagged, TaggedInput)
            assert tagged.tags.num_records == 3


class TestTimingBehaviour:
    def test_step_names_unchanged_from_monolith(self):
        result = ParPaRawParser().parse(DATA)
        assert sorted(result.step_seconds()) == [
            "convert", "parse", "partition", "scan", "tag"]

    def test_prune_timed_only_when_active(self):
        without = ParPaRawParser().parse(DATA)
        assert "prune" not in without.step_seconds()
        with_prune = ParPaRawParser(
            ParseOptions(skip_rows=frozenset({0}))).parse(DATA)
        assert "prune" in with_prune.step_seconds()

    def test_each_timed_stage_recorded_once(self):
        result = ParPaRawParser().parse(DATA)
        assert all(count == 1
                   for count in result.timer.counts().values())

    def test_sharded_reports_same_step_names(self):
        executor = ShardedExecutor(workers=3, shard_bytes=4,
                                   use_processes=False)
        result = ParPaRawParser(executor=executor).parse(DATA)
        assert sorted(result.step_seconds()) == [
            "convert", "parse", "partition", "scan", "tag"]


class TestExecutorDefaults:
    def test_serial_is_the_default(self):
        assert isinstance(ParPaRawParser().executor, SerialExecutor)

    def test_context_manager_closes_pool(self):
        with ShardedExecutor(workers=2, shard_bytes=4) as executor:
            ParPaRawParser(executor=executor).parse(DATA)
            assert executor._pool is not None
        assert executor._pool is None

    def test_invalid_configuration_rejected(self):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            ShardedExecutor(workers=0)
        with pytest.raises(ParseError):
            ShardedExecutor(shard_bytes=0)
