"""Calibrated per-step cost model of the ParPaRaw GPU pipeline.

The reproduction has no GPU, so the benchmark harness regenerates the
paper's figures from a model that converts *workload statistics* (input
size, chunk size, dataset shape, tagging mode) into per-step durations on a
:class:`~repro.reference.gpusim.device.DeviceSpec`.  The model composes
first principles (bandwidth × bytes moved, cycles × work items, fixed
launch overheads, bank-conflict serialisation) with a handful of
calibration constants fitted to the paper's reported measurements:

* ≈14.2 GB/s peak on-GPU rate for the yelp dataset at 512 MB (paper §5.1,
  Figure 10) with the step mix of Figure 9a;
* type conversion ≈1/3 of total time for NYC taxi vs ≈20% for yelp
  (Figure 9), driven by the ~15x difference in fields per byte;
* ≈2.7 GB/s (yelp) and ≈2.1 GB/s (taxi) at 1 MB, dominated by the
  per-column kernel launches of the conversion step (§5.1);
* spikes at chunk sizes 32/48/64 from shared-memory bank conflicts, and a
  slow ramp below ~16 bytes from per-thread setup plus metadata volume
  (Figure 9);
* record-tagged mode slower than inline-terminated / vector-delimited
  because 4-byte record-tags multiply the bytes the tag, partition and
  convert steps move (Figure 11, §4.1).

The *absolute* numbers are the paper's by construction at the calibration
points; everything else (other chunk sizes, sizes, devices, datasets) is
prediction from the model's structure, which is what the benchmarks
compare shapes against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.columnar.schema import DataType
from repro.core.options import TaggingMode
from repro.errors import SimulationError
from repro.reference.gpusim.device import DeviceSpec, TITAN_X_PASCAL
from repro.reference.gpusim.kernel import KernelLaunch, KernelModel
from repro.reference.gpusim.memory import (GlobalMemoryModel,
                                          SharedMemoryModel)

__all__ = ["WorkloadStats", "StepCosts", "PipelineCostModel"]

MiB = 1024 ** 2

#: Record-tag bytes moved per symbol by each tagging mode (Figure 11).
RECORD_TAG_BYTES = {TaggingMode.TAGGED: 4.0, TaggingMode.INLINE: 0.0,
                    TaggingMode.DELIMITED: 0.125}


@dataclass(frozen=True)
class WorkloadStats:
    """Shape of one parsing workload, as the cost model sees it.

    Use :meth:`yelp_like` / :meth:`taxi_like` for the paper's datasets, or
    :meth:`from_result` to derive the statistics of an actual parse.
    """

    input_bytes: int
    chunk_size: int
    num_states: int
    num_columns: int
    num_records: int
    num_fields: int
    #: Fraction of fields requiring numeric/temporal conversion.
    numeric_field_fraction: float
    #: Bytes of record-tag moved per symbol: 4.0 for record-tagged mode,
    #: 0.0 for inline-terminated, 0.125 for vector-delimited (1 bit).
    record_tag_bytes: float = 4.0
    name: str = "workload"

    def __post_init__(self) -> None:
        if self.input_bytes < 0 or self.chunk_size <= 0:
            raise SimulationError("invalid workload geometry")
        if not 0.0 <= self.numeric_field_fraction <= 1.0:
            raise SimulationError("numeric_field_fraction must be in [0,1]")

    @property
    def num_chunks(self) -> int:
        return -(-self.input_bytes // self.chunk_size)

    @staticmethod
    def yelp_like(input_bytes: int, chunk_size: int = 31,
                  record_tag_bytes: float = 4.0) -> "WorkloadStats":
        """The yelp reviews dataset: 9 columns, 721.4 B/record (paper §5)."""
        records = max(1, round(input_bytes / 721.4))
        return WorkloadStats(
            input_bytes=input_bytes, chunk_size=chunk_size, num_states=6,
            num_columns=9, num_records=records, num_fields=records * 9,
            numeric_field_fraction=4 / 9,   # text-heavy
            record_tag_bytes=record_tag_bytes, name="yelp")

    @staticmethod
    def taxi_like(input_bytes: int, chunk_size: int = 31,
                  record_tag_bytes: float = 4.0) -> "WorkloadStats":
        """NYC taxi trips: 17 numeric/temporal columns, 88.3 B/record."""
        records = max(1, round(input_bytes / 88.3))
        return WorkloadStats(
            input_bytes=input_bytes, chunk_size=chunk_size, num_states=6,
            num_columns=17, num_records=records, num_fields=records * 17,
            numeric_field_fraction=1.0,
            record_tag_bytes=record_tag_bytes, name="taxi")

    @staticmethod
    def from_result(result, name: str = "measured") -> "WorkloadStats":
        """Statistics of an actual parse, a
        :class:`~repro.core.result.ParseResult`."""
        num_columns = max(1, result.table.num_columns)
        num_records = max(1, result.num_rows)
        # Every non-string column costs conversion work (bool included).
        numeric = sum(1 for f in result.table.schema
                      if f.dtype is not DataType.STRING)
        options = result.options
        return WorkloadStats(
            input_bytes=result.input_bytes,
            chunk_size=options.chunk_size,
            num_states=options.resolved_dfa().num_states,
            num_columns=num_columns, num_records=num_records,
            num_fields=num_records * num_columns,
            numeric_field_fraction=numeric / num_columns,
            record_tag_bytes=RECORD_TAG_BYTES[options.tagging_mode],
            name=name)


@dataclass
class StepCosts:
    """Per-step durations in seconds (the Figure 9 breakdown)."""

    parse: float = 0.0
    scan: float = 0.0
    tag: float = 0.0
    partition: float = 0.0
    convert: float = 0.0

    @property
    def total(self) -> float:
        return self.parse + self.scan + self.tag + self.partition \
            + self.convert

    def as_dict(self) -> dict[str, float]:
        return {"parse": self.parse, "scan": self.scan, "tag": self.tag,
                "partition": self.partition, "convert": self.convert}

    def __add__(self, other: "StepCosts") -> "StepCosts":
        return StepCosts(
            parse=self.parse + other.parse,
            scan=self.scan + other.scan,
            tag=self.tag + other.tag,
            partition=self.partition + other.partition,
            convert=self.convert + other.convert)

    def scaled(self, factors: dict[str, float]) -> "StepCosts":
        """A copy with each step multiplied by ``factors`` (default 1.0).

        This is how measured calibration ratios rescale a prediction:
        ``repro.plan.calibration.CalibrationStore.apply`` builds the
        factor map from observed/modelled EWMAs.
        """
        return StepCosts(
            parse=self.parse * factors.get("parse", 1.0),
            scan=self.scan * factors.get("scan", 1.0),
            tag=self.tag * factors.get("tag", 1.0),
            partition=self.partition * factors.get("partition", 1.0),
            convert=self.convert * factors.get("convert", 1.0))


@dataclass
class PipelineCostModel:
    """Converts workload statistics into simulated step durations."""

    device: DeviceSpec = field(default_factory=lambda: TITAN_X_PASCAL)

    # ---- calibration constants (fitted to the paper; see module docs) ----
    #: DFA-simulation cost per input byte per DFA instance (SWAR match is
    #: shared; one MFIRA-backed table lookup + update per instance).
    parse_cycles_per_byte_per_state: float = 22.0
    #: Single-instance re-simulation + bitmap/tag emission per byte.
    tag_cycles_per_byte: float = 60.0
    #: Numeric/temporal field conversion, per field.
    convert_cycles_per_field: float = 700.0
    #: Kernel launches per column during conversion (CSS-index generation
    #: + offsets scan + conversion kernel — paper §5.1).
    launches_per_column: float = 3.0
    #: Fixed pipeline launches (parse, scan, tag, offsets, partition x2).
    fixed_launches: float = 8.0
    #: Per-thread setup cost, in cycles (dominates tiny chunk sizes).
    thread_init_cycles: float = 120.0
    #: Radix-sort digit width in bits.
    radix_bits: int = 8

    def __post_init__(self) -> None:
        self._kernel = KernelModel(self.device,
                                   thread_init_cycles=self.thread_init_cycles)
        self._gmem = GlobalMemoryModel(self.device)
        self._smem = SharedMemoryModel()

    # ---- helpers -----------------------------------------------------------

    def _compute_seconds(self, cycles: float) -> float:
        return cycles / self.device.peak_ops_per_second

    def _stv_bytes(self, stats: WorkloadStats) -> float:
        """Bytes of state-transition-vector metadata (1 B per state)."""
        return stats.num_chunks * stats.num_states

    # ---- per-step costs -----------------------------------------------------

    def parse_cost(self, stats: WorkloadStats) -> float:
        """Phase 1: multi-instance DFA simulation producing the STVs."""
        launch = KernelLaunch("parse", stats.num_chunks,
                              registers_per_thread=40)
        compute = self._compute_seconds(
            stats.input_bytes * stats.num_states
            * self.parse_cycles_per_byte_per_state)
        memory = self._gmem.stream_time(stats.input_bytes
                                        + self._stv_bytes(stats))
        conflict = self._smem.conflict_slowdown(stats.chunk_size,
                                                self.device.warp_size)
        busy = max(compute, memory) * conflict
        return busy + self._kernel.thread_setup_time(launch) \
            + self._kernel.launch_overhead(1)

    def scan_cost(self, stats: WorkloadStats) -> float:
        """Exclusive scan of the STVs (plus the offset scans).

        Bandwidth bound over the metadata; the single-pass scan reads and
        writes each tile once plus look-back traffic (~3x the payload).
        Linear in the number of chunks — noticeable only for tiny chunks
        (paper §5.1).
        """
        payload = self._stv_bytes(stats) + stats.num_chunks * 8.0
        return self._gmem.stream_time(3.0 * payload) \
            + self._kernel.launch_overhead(1)

    def tag_cost(self, stats: WorkloadStats) -> float:
        """Phase 2: re-simulation + bitmaps + record/column tags."""
        launch = KernelLaunch("tag", stats.num_chunks,
                              registers_per_thread=40)
        compute = self._compute_seconds(
            stats.input_bytes * self.tag_cycles_per_byte)
        # Bitmaps: 3 bits per byte; tags: column tag (1 B after group
        # compression) + record tag per symbol, mode dependent.
        tag_bytes = stats.input_bytes * (3 / 8 + 1.0
                                         + stats.record_tag_bytes)
        memory = self._gmem.stream_time(stats.input_bytes + tag_bytes)
        conflict = self._smem.conflict_slowdown(stats.chunk_size,
                                                self.device.warp_size)
        busy = max(compute, memory) * conflict
        return busy + self._kernel.thread_setup_time(launch) \
            + self._kernel.launch_overhead(2)

    def partition_cost(self, stats: WorkloadStats) -> float:
        """Phase 3a: stable radix sort of symbols by column tag."""
        key_bits = max(1, (stats.num_columns - 1).bit_length())
        passes = -(-key_bits // self.radix_bits)
        # Each pass streams the symbol + record tag + key in, and scatters
        # the symbol + record tag out (the key is consumed by the pass).
        read_payload = stats.input_bytes * (2.0 + stats.record_tag_bytes)
        write_payload = stats.input_bytes * (1.0 + stats.record_tag_bytes)
        per_pass = self._gmem.stream_time(read_payload) \
            + self._gmem.scatter_time(write_payload)
        return passes * per_pass + self._kernel.launch_overhead(3 * passes)

    def convert_cost(self, stats: WorkloadStats) -> float:
        """Phase 3b: CSS index generation + typed conversion."""
        launches = self._kernel.launch_overhead(
            self.launches_per_column * stats.num_columns)
        # CSS index: RLE over record tags + offsets scan (bandwidth).
        index_bytes = stats.input_bytes * stats.record_tag_bytes \
            + stats.num_fields * 8.0
        index_time = self._gmem.stream_time(index_bytes)
        # Conversion: numeric fields cost cycles; text is a copy.
        numeric_fields = stats.num_fields * stats.numeric_field_fraction
        compute = self._compute_seconds(
            numeric_fields * self.convert_cycles_per_field)
        copy_time = self._gmem.stream_time(2.0 * stats.input_bytes)
        return launches + index_time + compute + copy_time

    # ---- aggregates ----------------------------------------------------------

    def step_costs(self, stats: WorkloadStats) -> StepCosts:
        """The full Figure 9-style breakdown for one workload."""
        return StepCosts(
            parse=self.parse_cost(stats),
            scan=self.scan_cost(stats),
            tag=self.tag_cost(stats),
            partition=self.partition_cost(stats),
            convert=self.convert_cost(stats),
        )

    def total_seconds(self, stats: WorkloadStats) -> float:
        return self.step_costs(stats).total

    def parsing_rate(self, stats: WorkloadStats) -> float:
        """On-GPU parsing rate in bytes/second (Figure 10's y axis)."""
        total = self.total_seconds(stats)
        if total <= 0:
            raise SimulationError("non-positive simulated duration")
        return stats.input_bytes / total

    # ---- memory footprint ----------------------------------------------------

    def device_memory_bytes(self, stats: WorkloadStats) -> float:
        """Peak device-memory footprint of an on-GPU parse.

        Counts the resident allocations: raw input, STVs + per-chunk
        offsets, the three bitmap indexes, column/record tags, the
        double-buffered radix-sort payload, CSS indexes and the typed
        output.  Record-tagged mode carries 4 extra bytes per symbol
        through tagging/partitioning — the reason the paper evaluates
        only the first 512 MB of each dataset, "to be able to evaluate
        all tagging modes before running out of device memory" (§5.1).
        """
        n = stats.input_bytes
        metadata = self._stv_bytes(stats) + stats.num_chunks * 16.0
        bitmaps = n * 3 / 8
        tags = n * (1.0 + stats.record_tag_bytes)
        # LSD radix sort ping-pongs two full payload copies.
        sort_payload = 2.0 * n * (1.0 + stats.record_tag_bytes)
        index = stats.num_fields * 16.0
        output = n * 1.1 + stats.num_fields * 1.0 / 8
        return n + metadata + bitmaps + tags + sort_payload + index \
            + output

    def convert_cost_row_order(self, stats: WorkloadStats) -> float:
        """Conversion cost WITHOUT the columnar partition (§3.3's foil).

        If threads converted fields in row order, neighbouring threads
        would hold different column types and execute divergent code
        paths; a warp serialises by the expected number of distinct paths
        among its lanes.  Comparing against :meth:`convert_cost` (where a
        warp's threads all convert the same column) quantifies why
        ParPaRaw pays for the radix-sort partition.
        """
        from repro.reference.gpusim.warp import WarpExecutionModel
        warp_model = WarpExecutionModel(self.device.warp_size)
        path_mix = {column: 1.0 / stats.num_columns
                    for column in range(stats.num_columns)}
        penalty = warp_model.divergence_penalty(path_mix)
        launches = self._kernel.launch_overhead(1.0)
        numeric_fields = stats.num_fields * stats.numeric_field_fraction
        compute = self._compute_seconds(
            numeric_fields * self.convert_cycles_per_field) * penalty
        copy_time = self._gmem.stream_time(2.0 * stats.input_bytes)
        return launches + compute + copy_time

    def suggest_chunk_size(self, stats_factory, input_bytes: int,
                           candidates: range = range(4, 65)) -> int:
        """The chunk size minimising simulated total time.

        Searching the model over the paper's 4-64 byte range lands on an
        odd, near-register-width size (the paper settles on 31 — §5.1);
        exposed so applications can tune for other devices or workloads.
        """
        best_size = None
        best_time = float("inf")
        for chunk_size in candidates:
            stats = stats_factory(input_bytes, chunk_size=chunk_size)
            seconds = self.total_seconds(stats)
            if seconds < best_time:
                best_time = seconds
                best_size = chunk_size
        if best_size is None:
            raise SimulationError("no candidate chunk sizes given")
        return best_size

    def max_input_for_device(self, stats_factory,
                             record_tag_bytes: float = 4.0) -> int:
        """Largest input (bytes) whose parse fits in device memory.

        Binary-searches the footprint model; with the Titan X's 12 GB and
        record-tagged mode this lands near the paper's 512 MB-per-dataset
        evaluation ceiling (three tagging-mode variants resident ≈ the
        quoted constraint).
        """
        lo, hi = 1, self.device.memory_bytes
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            stats = stats_factory(mid, record_tag_bytes=record_tag_bytes)
            if self.device_memory_bytes(stats) <= self.device.memory_bytes:
                lo = mid
            else:
                hi = mid
        return lo
