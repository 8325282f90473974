"""The parsing pipeline as explicit, individually runnable stages.

The monolithic ``ParPaRawParser.parse()`` is decomposed here into the
paper's processing steps, each a :class:`Stage` object with a declared
input/output payload dataclass:

====================  ==================  ==================  ===========
stage                 input               output              timer step
====================  ==================  ==================  ===========
``prune``    (§4.3)   :class:`RawInput`   :class:`RawInput`   ``prune``
``chunk``    (§3)     :class:`RawInput`   :class:`ChunkedInput`      —
``stv``      (§3.1)   :class:`ChunkedInput`  :class:`ChunkVectors`  ``parse``
``scan``     (§3.1)   :class:`ChunkVectors`  :class:`ChunkContexts` ``scan``
``tag``      (§3.1-2) :class:`ChunkContexts` :class:`TaggedInput`   ``tag``
``validate`` (§4.3)   :class:`TaggedInput`   :class:`ValidatedInput`    —
``partition``(§3.3)   :class:`ValidatedInput` :class:`PartitionedInput` ``partition``
``convert``  (§3.3)   :class:`PartitionedInput` :class:`ConvertedOutput` ``convert``
====================  ==================  ==================  ===========

The *timer step* column is the paper's step vocabulary (Figures 9/11);
:class:`StagePipeline` times each stage under that name, so the measured
breakdown of a staged parse is indistinguishable from the old monolith's.

Each payload holds what its consuming stage reads, and nothing else.  The
grid payloads extend one another (chunk → stv → scan → tag), and the
whole grid is dropped when tag returns.  After that, every payload is a
flat dataclass built field by field: :class:`ValidatedInput` carries the
six arrays partition reads, :class:`PartitionedInput` the CSS, and both
hand validation's one :class:`~repro.core.selection.Selection` through to
:class:`ConvertedOutput` by reference.  So each stage's inputs are freed
as soon as it returns.

Stages are pure with respect to the :class:`PipelineContext` (options,
automaton, timer): running the same stage twice on the same payload gives
the same result.  This is what makes execution *pluggable*: the
:mod:`repro.exec` executors run the very same stage objects — serially, or
sharded across a process pool with scan-based shard combination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.columnar.schema import DataType, Field, Schema
from repro.columnar.table import Table
from repro.core.chunking import Chunking, chunk_groups_canonical
from repro.core.context import chunk_start_states
from repro.core.conversion import CollaborationStats, ConvertStats, \
    convert_column
from repro.core.options import ColumnCountPolicy, ParseOptions, TaggingMode
from repro.core.partition import PartitionResult, partition_field_runs
from repro.core.selection import Selection, prune_rows, row_mapping, \
    selected_column_mask
from repro.core.tagging import TagResult, segment_lengths, tag_global
from repro.core.tagging_modes import build_keep_mask, column_indexes, \
    prepare_css
from repro.core.typeinfer import infer_column_type
from repro.core.validation import apply_column_policy, validate_input
from repro.dfa.automaton import Dfa, Emission
from repro.dfa.minimize import Minimization
from repro.errors import ParseError
from repro.kernels import (
    KernelPlan,
    compute_emissions_plan,
    compute_transition_vectors_plan,
    get_plan,
    pack_plan,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.scan.numpy_scan import scan_depth
from repro.utils.timing import StepTimer

__all__ = [
    "PipelineContext",
    "RawInput",
    "ChunkedInput",
    "ChunkVectors",
    "ChunkContexts",
    "TaggedInput",
    "ValidatedInput",
    "PartitionedInput",
    "ConvertedOutput",
    "Stage",
    "PruneStage",
    "ChunkStage",
    "StvStage",
    "ScanStage",
    "TagStage",
    "ValidateStage",
    "PartitionStage",
    "ConvertStage",
    "StagePipeline",
    "default_pipeline",
    "as_input_array",
]


# -- context -----------------------------------------------------------------

@dataclass
class PipelineContext:
    """Everything a stage may read besides its payload."""

    #: The options the parse runs with.
    options: ParseOptions
    #: The resolved (unpadded) automaton.
    dfa: Dfa
    #: Accumulates the per-step wall-clock breakdown.
    timer: StepTimer
    #: Span tracer; the shared no-op unless observability is requested.
    tracer: Tracer = NULL_TRACER
    #: Metrics registry; the shared no-op unless requested.
    metrics: MetricsRegistry = NULL_METRICS


# -- stage payloads ----------------------------------------------------------

@dataclass
class RawInput:
    """The parse input as raw bytes (possibly already row-pruned)."""

    #: ``(n,)`` uint8 input bytes.
    raw: np.ndarray


@dataclass
class ChunkedInput(RawInput):
    """The input cut into the equal-size chunk grid of §3."""

    #: ``(num_chunks, chunk_size)`` symbol-group matrix (padded).
    groups: np.ndarray
    #: Grid geometry.
    chunking: Chunking
    #: The *canonical minimised* automaton extended with the padding
    #: group; the chunk grid holds its group ids.
    padded_dfa: Dfa
    #: The minimisation that produced the canonical automaton — carries
    #: the maps back to the source state space.
    canon: Minimization = field(kw_only=True)


@dataclass
class ChunkVectors(ChunkedInput):
    """Chunked input plus each chunk's state-transition vector (§3.1)."""

    #: ``(num_chunks, num_states)`` uint8 STVs.
    vectors: np.ndarray
    #: The kernel plan both sweeps run (the empty plan at stride 1), so
    #: :class:`TagStage` neither resolves the stride nor looks it up.
    plan: KernelPlan
    #: Packed k-gram indexes keyed by stride (one matrix per distinct
    #: segment width of ``plan``; empty for the k=1 plan), cached by
    #: :class:`StvStage` so :class:`TagStage` reuses the packing pass.
    packed_kgrams: dict[int, np.ndarray]


@dataclass
class ChunkContexts(ChunkVectors):
    """Chunk vectors plus every chunk's true start state (post-scan)."""

    #: ``(num_chunks,)`` uint8 start states.
    start_states: np.ndarray


@dataclass
class TaggedInput(RawInput):
    """The input with every symbol classified and tagged (§3.1-§3.2).

    Deliberately grid-free: a sharded executor produces this payload by
    merging per-shard tag results, without ever materialising a global
    chunk grid.
    """

    #: Per-symbol classification and record/column tags.
    tags: TagResult
    #: First byte offset at which the automaton sat in the INV sink.
    invalid_position: int | None


@dataclass
class ValidatedInput:
    """Validation's selection plus exactly what the partition reads (§4.3).

    The tag result, the data mask and the record masks stay behind:
    what they decided is in ``keep`` and the segment arrays.
    """

    #: Validation's decisions, handed through to conversion.
    selection: Selection
    #: Input extended with the virtual trailing record delimiter.
    data_ext: np.ndarray
    #: Delimiter mask over the extended input; only the inline and
    #: delimited modes read it (``None`` in the record-tagged mode).
    delim_mask: np.ndarray | None
    #: ``(n_ext,)`` bool — positions entering the partition.
    keep: np.ndarray
    #: The tagging stage's segments over the extended input: delimiter
    #: positions (including the virtual trailing delimiter) and each
    #: segment's record and column tag.
    delim_positions: np.ndarray
    segment_records: np.ndarray
    segment_columns: np.ndarray


@dataclass
class PartitionedInput:
    """Symbols partitioned into per-column CSSs: what conversion reads."""

    #: Validation's decisions, handed through from validate.
    selection: Selection
    #: The stable column partition.
    part: PartitionResult
    #: CSS after mode-specific post-processing (§4.1).
    css: np.ndarray
    #: CSS positions holding field terminators (``None`` when
    #: record-tagged).
    aux_delims: np.ndarray | None


@dataclass
class ConvertedOutput:
    """Final stage output: everything a ParseResult is assembled from."""

    table: Table
    collaboration: CollaborationStats
    #: Validation's decisions (report, row and record counts).
    selection: Selection
    #: Byte-copy accounting of the convert stage (fused-path telemetry).
    convert_stats: ConvertStats = field(default_factory=ConvertStats)


def as_input_array(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    # parlint: returns-borrowed -- frombuffer view of the caller's bytes
    """Coerce parser input to the uint8 array the pipeline operates on."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise ParseError("input array must be uint8")
        return data
    return np.frombuffer(bytes(data), dtype=np.uint8)


# -- stages ------------------------------------------------------------------

class Stage:
    """One named phase of the parsing pipeline.

    Subclasses declare their payload contract (``input_type`` /
    ``output_type``) and the paper step name their wall-clock time is
    credited to (``timer_step``; ``None`` = untimed, exactly as in the
    monolithic parser).
    """

    name: ClassVar[str]
    timer_step: ClassVar[str | None] = None
    input_type: ClassVar[type] = RawInput
    output_type: ClassVar[type] = RawInput

    def applies(self, ctx: PipelineContext, payload) -> bool:
        """Whether the stage does any work for this parse (default: yes).

        An inapplicable stage is skipped entirely — it neither runs nor
        records a timer entry (the monolith only timed ``prune`` when rows
        were actually pruned).
        """
        return True

    def run(self, ctx: PipelineContext, payload):
        raise NotImplementedError

    def record_metrics(self, metrics: MetricsRegistry, payload) -> None:
        """Credit this stage's output to the metrics registry.

        Called by :meth:`StagePipeline.run_stage` with the stage's output
        payload, only when metrics are enabled.  Default: nothing.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class PruneStage(Stage):
    """Remove skipped physical rows in an initial pass (§4.3)."""

    name = "prune"
    timer_step = "prune"
    input_type = RawInput
    output_type = RawInput

    def applies(self, ctx, payload) -> bool:
        return bool(ctx.options.skip_rows)

    def run(self, ctx, payload: RawInput) -> RawInput:
        raw = prune_rows(payload.raw, ctx.options.skip_rows,
                         ctx.options.dialect.record_delimiter_byte)
        return RawInput(raw=raw)


class ChunkStage(Stage):
    """Cut the input into the chunk grid, one chunk per logical thread.

    The grid is built over the canonical minimised automaton, so every
    downstream sweep runs in the smallest equivalent state/group space;
    :class:`TagStage` maps the final state back to the source
    automaton before validation.
    """

    name = "chunk"
    timer_step = None
    input_type = RawInput
    output_type = ChunkedInput

    def run(self, ctx, payload: RawInput) -> ChunkedInput:
        groups, chunking, padded_dfa, canon = chunk_groups_canonical(
            payload.raw, ctx.dfa, ctx.options.chunk_size)
        return ChunkedInput(raw=payload.raw, groups=groups, chunking=chunking,
                            padded_dfa=padded_dfa, canon=canon)

    def record_metrics(self, metrics, payload: ChunkedInput) -> None:
        metrics.count("chunks", payload.chunking.num_chunks)
        metrics.gauge("chunk.size", payload.chunking.chunk_size)


class StvStage(Stage):
    """Phase 1a: per-chunk state-transition vectors (§3.1).

    Timed as ``parse`` — the paper's name for the STV simulation step.
    The sweep runs the :class:`~repro.kernels.KernelPlan` of the
    options' resolved stride, advancing up to k symbols per step on the
    precomposed tables of :mod:`repro.kernels` (one per step on the
    empty k=1 plan).
    """

    name = "stv"
    timer_step = "parse"
    input_type = ChunkedInput
    output_type = ChunkVectors

    def run(self, ctx, payload: ChunkedInput) -> ChunkVectors:
        plan = get_plan(payload.padded_dfa, ctx.options.resolved_stride(),
                        payload.chunking.chunk_size, ctx.metrics)
        packed = pack_plan(payload.groups, plan)
        vectors = compute_transition_vectors_plan(payload.groups, plan,
                                                  packed)
        if ctx.metrics.enabled:
            ctx.metrics.gauge("stage.stv.stride", plan.k)
            ctx.metrics.gauge("kernels.table_budget",
                              ctx.options.kernel_table_budget)
        return ChunkVectors(**payload.__dict__, vectors=vectors, plan=plan,
                            packed_kgrams=packed)


class ScanStage(Stage):
    """Phase 1b: composition scan of the STVs -> chunk start states."""

    name = "scan"
    timer_step = "scan"
    input_type = ChunkVectors
    output_type = ChunkContexts

    def run(self, ctx, payload: ChunkVectors) -> ChunkContexts:
        start_states = chunk_start_states(payload.vectors,
                                          payload.padded_dfa)
        return ChunkContexts(**payload.__dict__, start_states=start_states)

    def record_metrics(self, metrics, payload: ChunkContexts) -> None:
        # Sequential depth of the reduce-then-walk scan over the STVs.
        metrics.gauge("scan.depth", scan_depth(payload.chunking.num_chunks))


class TagStage(Stage):
    """Phase 2: emission codes and per-segment record/column tags."""

    name = "tag"
    timer_step = "tag"
    input_type = ChunkContexts
    output_type = TaggedInput

    def run(self, ctx, payload: ChunkContexts) -> TaggedInput:
        emissions, final_state, invalid_position = compute_emissions_plan(
            payload.groups, payload.start_states, payload.plan,
            payload.chunking, payload.packed_kgrams)
        # The sweeps ran in canonical state space; report the final
        # state as its source-automaton representative so validation
        # (which speaks the source automaton) reads it directly.
        final_state = int(payload.canon.state_rep[final_state])
        if ctx.metrics.enabled:
            ctx.metrics.gauge("stage.tag.stride", payload.plan.k)
        tags = tag_global(emissions, final_state)
        return TaggedInput(raw=payload.raw, tags=tags,
                           invalid_position=invalid_position)


class ValidateStage(Stage):
    """Validation, column-count resolution, policies and selection (§4.3).

    Everything between tagging and partitioning: the validation report,
    structural/policy record masks, the row mapping, the virtual trailing
    delimiter, and the partition keep-mask.  Column selection and record
    policies are decided per segment and expanded only into the keep
    mask.
    """

    name = "validate"
    timer_step = None
    input_type = TaggedInput
    output_type = ValidatedInput

    def run(self, ctx, payload: TaggedInput) -> ValidatedInput:
        options = ctx.options
        tags = payload.tags
        report = validate_input(tags, ctx.dfa, payload.invalid_position,
                                options.strict)

        # Records that exist structurally: everything except skipped
        # records and the invalid tail.  Column-count inference runs over
        # these (the §4.3 max-reduction), *before* the count policy.
        structural = self._structural_records(options, tags, report)
        schema, num_columns = self._resolve_column_count(options, report,
                                                         structural)
        column_mask = selected_column_mask(num_columns,
                                           options.select_columns)

        valid_records = structural & self._policy_records(
            options, tags, report, num_columns)
        rows_of_record, num_rows = row_mapping(valid_records)
        rejected = int(tags.num_records - num_rows)

        mode = options.tagging_mode
        if mode is not TaggingMode.TAGGED:
            self._require_consistent_columns(report, valid_records,
                                             num_columns)
        (data_ext, data_mask, delim_mask, delim_positions, segment_records,
         segment_columns) = self._extend_trailing(options, payload.raw,
                                                  tags)
        segment_ok = self._segment_ok(segment_columns, segment_records,
                                      column_mask, valid_records)
        symbol_ok = None if segment_ok.all() else np.repeat(
            segment_ok, segment_lengths(delim_positions, data_ext.size))
        keep = build_keep_mask(mode, data_mask, delim_mask, symbol_ok)

        selection = Selection(
            report=report, schema=schema, num_columns=num_columns,
            column_mask=column_mask, rows_of_record=rows_of_record,
            num_rows=num_rows, num_records=tags.num_records,
            rejected_records=rejected)
        return ValidatedInput(
            selection=selection, data_ext=data_ext, delim_mask=delim_mask,
            keep=keep, delim_positions=delim_positions,
            segment_records=segment_records, segment_columns=segment_columns)

    def record_metrics(self, metrics, payload: ValidatedInput) -> None:
        selection = payload.selection
        metrics.count("records", selection.num_records)
        metrics.count("records.rejected", selection.rejected_records)
        metrics.gauge("columns", selection.num_columns)

    # -- helpers (the monolith's private methods, verbatim semantics) -------

    @staticmethod
    def _resolve_column_count(options: ParseOptions, report,
                              structural: np.ndarray
                              ) -> tuple[Schema | None, int]:
        """The output schema (None = infer later) and the column count.

        Without a schema the count is inferred as the maximum field count
        over structurally present records (paper §4.3) — rejected-by-policy
        records still participate; invalid-tail/skipped records do not.
        """
        if options.schema is not None:
            return options.schema, len(options.schema)
        counts = report.field_counts[structural]
        inferred = int(counts.max()) if counts.size else 0
        return None, inferred

    @staticmethod
    def _structural_records(options: ParseOptions, tags: TagResult,
                            report) -> np.ndarray:
        """Records that exist at all: not skipped, not in the invalid tail."""
        valid = np.ones(tags.num_records, dtype=bool)
        if options.skip_records:
            skip = np.array(sorted(r for r in options.skip_records
                                   if 0 <= r < tags.num_records),
                            dtype=np.int64)
            valid[skip] = False
        if report.invalid_position is not None and tags.num_records:
            valid[tags.record_at(report.invalid_position):] = False
        return valid

    @staticmethod
    def _policy_records(options: ParseOptions, tags: TagResult, report,
                        num_columns: int) -> np.ndarray:
        """Records surviving the column-count policy and tail checks."""
        valid = apply_column_policy(report, num_columns,
                                    options.column_count_policy,
                                    options.strict)
        if tags.has_trailing_record and not report.end_accepted \
                and tags.num_records:
            # Truncated trailing record (e.g. unclosed quote): reject it in
            # REJECT/STRICT modes, keep best-effort data in LENIENT mode.
            if options.column_count_policy is not ColumnCountPolicy.LENIENT:
                valid[tags.num_records - 1] = False
        return valid

    @staticmethod
    def _extend_trailing(options: ParseOptions, raw: np.ndarray,
                         tags: TagResult) -> tuple[np.ndarray, ...]:
        """Append a virtual record delimiter for an unterminated record.

        This gives the trailing record's last field a terminator, so the
        inline/delimited CSS modes need no special-casing.  The virtual
        position is never field data.  It closes the last segment, whose
        tags already name the trailing record's last field, and opens one
        more, empty segment.  Returns ``(data_ext, data_mask, delim_mask,
        delim_positions, segment_records, segment_columns)``: the masks
        from the emission codes (``delim_mask`` only in the modes that
        keep delimiters), the segments in tagging's index width.
        """
        data_ext, data_mask = raw, tags.emissions == np.uint8(Emission.DATA)
        segments = (tags.delim_positions, tags.segment_records,
                    tags.segment_columns)
        if tags.has_trailing_record:
            data_ext = np.append(raw, np.uint8(
                options.dialect.record_delimiter_byte))
            data_mask = np.append(data_mask, False)
            # Appending a Python int would widen int32 segments to int64.
            segments = tuple(
                np.append(array, array.dtype.type(tail)) for array, tail
                in zip(segments, (raw.size, tags.num_records, 0)))
        delim_mask = None
        if options.tagging_mode is not TaggingMode.TAGGED:
            delim_mask = np.zeros(data_ext.size, dtype=bool)
            delim_mask[segments[0]] = True
        return (data_ext, data_mask, delim_mask, *segments)

    @staticmethod
    def _segment_ok(segment_columns: np.ndarray,
                    segment_records: np.ndarray, column_mask: np.ndarray,
                    valid_records: np.ndarray) -> np.ndarray:
        """Segments of a selected column in a record producing a row.

        Segments in a trailing comment (no content after the last record
        delimiter) carry a record tag one past the end; they are never
        content, so clipping is safe.
        """
        num_columns, num_records = column_mask.size, valid_records.size
        if not num_columns or not num_records:
            return np.zeros(segment_columns.size, dtype=bool)
        ok = segment_columns < num_columns
        ok &= column_mask[np.minimum(segment_columns, num_columns - 1)]
        ok &= valid_records[np.minimum(segment_records, num_records - 1)]
        return ok

    @staticmethod
    def _require_consistent_columns(report, valid_records: np.ndarray,
                                    num_columns: int) -> None:
        counts = report.field_counts[valid_records] \
            if report.field_counts.size else report.field_counts
        if counts.size and (int(counts.min()) != num_columns
                            or int(counts.max()) != num_columns):
            raise ParseError(
                "inline/delimited tagging modes require a constant number "
                f"of columns per record (expected {num_columns}, observed "
                f"{int(counts.min())}..{int(counts.max())}); use "
                "TaggingMode.TAGGED or ColumnCountPolicy.REJECT")


class PartitionStage(Stage):
    """Phase 3a: stable column partition + CSS post-processing (§3.3).

    Partitions the delimiter segments as field runs
    (:func:`~repro.core.partition.partition_field_runs`), bit-identical
    to the paper's stable radix sort over the same tags expanded per
    symbol (the test oracle,
    :func:`~repro.reference.core.partition.partition_by_column`).
    """

    name = "partition"
    timer_step = "partition"
    input_type = ValidatedInput
    output_type = PartitionedInput

    def run(self, ctx, payload: ValidatedInput) -> PartitionedInput:
        options = ctx.options
        part = partition_field_runs(payload.data_ext, payload.keep,
                                    payload.delim_positions,
                                    payload.segment_columns,
                                    payload.segment_records,
                                    payload.selection.num_columns)
        css, aux_delims = prepare_css(options.tagging_mode, part,
                                      payload.delim_mask, options)
        return PartitionedInput(selection=payload.selection, part=part,
                                css=css, aux_delims=aux_delims)

    def record_metrics(self, metrics, payload: PartitionedInput) -> None:
        metrics.gauge("partition.fields", payload.part.num_field_runs)


class ConvertStage(Stage):
    """Phase 3b: CSS indexes, schema inference and typed conversion."""

    name = "convert"
    timer_step = "convert"
    input_type = PartitionedInput
    output_type = ConvertedOutput

    def run(self, ctx, payload: PartitionedInput) -> ConvertedOutput:
        options = ctx.options
        mode = options.tagging_mode
        part, css = payload.part, payload.css
        selection = payload.selection
        num_columns, num_rows = selection.num_columns, selection.num_rows

        indexes = column_indexes(mode, part, css, payload.aux_delims,
                                 options)
        schema = selection.schema
        if schema is None:
            schema = self._infer_schema(options, part, css, indexes,
                                        num_columns)
        columns = []
        out_fields = []
        collaboration = CollaborationStats()
        convert_stats = ConvertStats()
        for column in range(num_columns):
            if not selection.column_mask[column]:
                continue
            field = schema[column]
            lo = int(part.column_offsets[column])
            hi = int(part.column_offsets[column + 1])
            column_css = css[lo:hi]
            index = indexes[column]
            if mode is TaggingMode.TAGGED:
                row_of = selection.rows_of_record
            else:
                row_of = np.arange(num_rows, dtype=np.int64)
                if index.num_fields != num_rows:
                    raise ParseError(
                        f"column {column} materialised "
                        f"{index.num_fields} fields for {num_rows} "
                        f"records; inline/delimited tagging requires a "
                        f"consistent column count")
            converted, stats = convert_column(
                field, column_css, index, row_of, num_rows, options,
                convert_stats)
            columns.append(converted)
            out_fields.append(field)
            collaboration = collaboration + stats

        table = Table(Schema(out_fields), columns)
        return ConvertedOutput(table=table, collaboration=collaboration,
                               selection=selection,
                               convert_stats=convert_stats)

    def record_metrics(self, metrics, payload: ConvertedOutput) -> None:
        num_rows = payload.selection.num_rows
        metrics.count("rows", num_rows)
        metrics.count("fields", num_rows * payload.table.num_columns)
        metrics.count("bytes.out",
                      sum(col.data.nbytes
                          + (col.offsets.nbytes if col.offsets is not None
                             else 0)
                          for col in payload.table.columns))
        metrics.count("convert.bytes.copied",
                      payload.convert_stats.bytes_copied)
        metrics.count("convert.zero_copy_columns",
                      payload.convert_stats.zero_copy_columns)

    @staticmethod
    def _infer_schema(options: ParseOptions, part, css: np.ndarray,
                      indexes, num_columns: int) -> Schema:
        """Schema when none was given: inferred types or all strings."""
        fields = []
        for column in range(num_columns):
            if options.infer_types:
                lo = int(part.column_offsets[column])
                hi = int(part.column_offsets[column + 1])
                dtype = infer_column_type(css[lo:hi], indexes[column])
            else:
                dtype = DataType.STRING
            fields.append(Field(f"col{column}", dtype))
        return Schema(fields)


# -- the pipeline ------------------------------------------------------------

class StagePipeline:
    """An ordered sequence of stages with timed, resumable execution.

    Executors drive this object: :class:`~repro.exec.SerialExecutor` runs
    every stage in order; :class:`~repro.exec.ShardedExecutor` replaces the
    ``stv``/``scan``/``tag`` segment with its process-pool equivalent and
    re-enters the pipeline at ``validate``.
    """

    def __init__(self, stages: tuple[Stage, ...] | list[Stage]):
        self.stages: tuple[Stage, ...] = tuple(stages)
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def stage(self, name: str) -> Stage:
        """Look a stage up by name."""
        return self.stages[self.index_of(name)]

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown stage {name!r}; "
                           f"have {self.stage_names}")
        return self._index[name]

    def run_stage(self, stage: Stage, ctx: PipelineContext, payload):
        """Run one stage, timing it under its paper step name.

        With observability off (the default ``NULL_TRACER``/``NULL_METRICS``
        context) this takes the exact pre-observability path after two
        attribute reads, so the disabled overhead is negligible.
        """
        if not stage.applies(ctx, payload):
            return payload
        tracer, metrics = ctx.tracer, ctx.metrics
        if not tracer.enabled and not metrics.enabled:
            if stage.timer_step is None:
                return stage.run(ctx, payload)
            with ctx.timer.step(stage.timer_step):
                return stage.run(ctx, payload)
        start = time.perf_counter()
        with tracer.span(f"stage:{stage.name}",
                         step=stage.timer_step or ""):
            if stage.timer_step is None:
                payload = stage.run(ctx, payload)
            else:
                with ctx.timer.step(stage.timer_step):
                    payload = stage.run(ctx, payload)
        if metrics.enabled:
            metrics.observe(f"stage.{stage.name}.seconds",
                            time.perf_counter() - start)
            stage.record_metrics(metrics, payload)
        return payload

    def run(self, ctx: PipelineContext, payload, *,
            start: str | None = None, until: str | None = None):
        """Run stages ``start``..``until`` (inclusive, by name) in order."""
        lo = 0 if start is None else self.index_of(start)
        hi = len(self.stages) - 1 if until is None else self.index_of(until)
        if hi < lo:
            raise ValueError(f"until={until!r} precedes start={start!r}")
        for stage in self.stages[lo:hi + 1]:
            payload = self.run_stage(stage, ctx, payload)
        return payload


_DEFAULT_STAGES = (PruneStage, ChunkStage, StvStage, ScanStage, TagStage,
                   ValidateStage, PartitionStage, ConvertStage)
_default: StagePipeline | None = None


def default_pipeline() -> StagePipeline:
    """The canonical eight-stage ParPaRaw pipeline (shared instance)."""
    global _default
    if _default is None:
        _default = StagePipeline(tuple(cls() for cls in _DEFAULT_STAGES))
    return _default
