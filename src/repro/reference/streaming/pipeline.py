"""Event-driven simulation of the streaming pipeline (Figure 7).

Resources: the host-to-device PCIe channel, the device-to-host PCIe
channel (independent — full duplex), and the GPU (serial executor of parse
and carry-over-copy steps).  Buffers: the double buffer of
:mod:`repro.reference.streaming.buffers`, with hazard checking.

Per partition ``i`` on buffer ``b = i % 2``:

* ``transfer(i)`` — HtD channel; writes ``input[b]``; must wait until the
  readers of ``input[b]`` (the parse and carry-copy of partition ``i-2``)
  are done — the corruption hazard §4.4 calls out.
* ``parse(i)`` — GPU; reads ``input[b]`` + ``carry[b]``; writes
  ``data[b]`` (so it also waits for ``return(i-2)``).
* ``copy(i)`` — GPU; reads the tail of ``input[b]``; writes
  ``carry[1-b]`` for the next partition.  This simulator orders it after
  ``parse(i)`` (the parse's tags locate the true record boundary), which
  Figure 7's dependency edges permit.
* ``return(i)`` — DtH channel; reads ``data[b]``.

The schedule's makespan is the end-to-end duration of Figures 12/13; the
per-stage records let tests assert the hazards and the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StreamingError
from repro.reference.gpusim.cost_model import PipelineCostModel, WorkloadStats
from repro.reference.gpusim.device import DeviceSpec, TITAN_X_PASCAL
from repro.obs.export import chrome_trace
from repro.obs.trace import Span
from repro.reference.streaming.buffers import DoubleBuffer
from repro.reference.streaming.pcie import PcieLink

__all__ = ["StageRecord", "PipelineSchedule", "StreamingPipeline",
           "RESOURCES", "RESOURCE_OF"]

#: The three hardware resources of Figure 7.
RESOURCES = ("HtD", "GPU", "DtH")

#: Which resource each pipeline step occupies.  ``copy`` shares the GPU
#: with ``parse`` — both are serial on the device, so GPU busy time is the
#: sum of the two.
RESOURCE_OF = {"transfer": "HtD", "parse": "GPU", "copy": "GPU",
               "return": "DtH"}


@dataclass(frozen=True)
class StageRecord:
    """One scheduled pipeline step."""

    stage: str
    partition: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PipelineSchedule:
    """The full schedule and its summary statistics."""

    records: list[StageRecord] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max((r.end for r in self.records), default=0.0)

    def stage_records(self, stage: str) -> list[StageRecord]:
        return [r for r in self.records if r.stage == stage]

    def busy_time(self, stage: str) -> float:
        return sum(r.duration for r in self.stage_records(stage))

    def resource_busy_time(self, resource: str) -> float:
        """Total busy time of one resource (``HtD``/``GPU``/``DtH``).

        Aggregates every step occupying the resource: the GPU runs both
        ``parse`` and the carry-over ``copy``, so its busy time is their
        sum — counting ``parse`` alone undercounts the GPU whenever the
        schedule is copy-heavy.
        """
        return sum(r.duration for r in self.records
                   if RESOURCE_OF[r.stage] == resource)

    def overlap_efficiency(self) -> float:
        """Busy time of the bottleneck resource / makespan (1.0 = hidden).

        Close to 1.0 means the pipeline fully hides the other resources
        behind the bottleneck — the paper's "maxes out the full-duplex
        capabilities of the PCIe bus while simultaneously parsing" claim.
        """
        makespan = self.makespan
        if makespan <= 0:
            return 1.0
        busiest = max(self.resource_busy_time(r) for r in RESOURCES)
        return busiest / makespan

    def bottleneck(self) -> str:
        """The resource (``HtD``/``GPU``/``DtH``) with the most busy time."""
        return max(RESOURCES, key=self.resource_busy_time)

    def fill_drain_seconds(self) -> float:
        """Un-overlapped pipeline head + tail.

        The first partition's transfer has nothing to overlap with, and
        the last partition's return happens after all parsing — the two
        terms that grow with the partition size and bend Figure 12's
        curve back up on the right.
        """
        transfers = self.stage_records("transfer")
        returns = self.stage_records("return")
        if not transfers or not returns:
            return 0.0
        first_transfer = min(transfers, key=lambda r: r.start)
        last_return = max(returns, key=lambda r: r.end)
        head = first_transfer.duration
        parses = self.stage_records("parse")
        last_parse_end = max(r.end for r in parses) if parses else 0.0
        tail = max(0.0, last_return.end - max(last_parse_end,
                                              last_return.start))
        return head + tail

    def render_gantt(self, width: int = 72,
                     max_partitions: int | None = 8) -> str:
        """ASCII Gantt chart of the schedule (one row per resource).

        Stage letters: ``T`` transfer (HtD), ``P`` parse, ``c`` carry-over
        copy, ``R`` return (DtH); alternating case marks partition parity
        so the double buffering is visible.  Any ``width`` ≥ 1 renders;
        tiny widths just collapse the bars.
        """
        makespan = self.makespan
        if makespan <= 0:
            return "(empty schedule)"
        width = max(1, width)
        rows = {resource: [" "] * width for resource in RESOURCES}
        letters = {"transfer": "Tt", "parse": "Pp", "copy": "cc",
                   "return": "Rr"}
        for record in self.records:
            if max_partitions is not None \
                    and record.partition >= max_partitions:
                continue
            row = rows[RESOURCE_OF[record.stage]]
            lo = int(record.start / makespan * (width - 1))
            lo = min(width - 1, max(0, lo))
            hi = max(lo + 1, int(record.end / makespan * (width - 1)))
            letter = letters[record.stage][record.partition % 2]
            for i in range(lo, min(hi, width)):
                row[i] = letter
        lines = [f"{name:<4}" + "".join(cells)
                 for name, cells in rows.items()]
        lines.append(f"      0s {'.' * max(0, width - 14)} "
                     f"{makespan:.3f}s")
        return "\n".join(lines)

    # -- trace export --------------------------------------------------------

    def spans(self) -> list[Span]:
        """The schedule as trace spans, one timeline track per resource.

        Simulated timestamps are already seconds from zero, so they drop
        straight into the span model; the resource name rides in ``tid``
        and becomes the track label in the exported trace.
        """
        return [Span(name=f"{r.stage}:{r.partition}",
                     start=r.start, end=r.end,
                     pid=0, tid=RESOURCE_OF[r.stage],
                     attrs={"stage": r.stage, "partition": r.partition})
                for r in self.records]

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` document of the simulated schedule.

        The same format measured parses export, so a simulated Figure 13
        schedule and a real run open side by side in Perfetto.
        """
        return chrome_trace(self.spans())


class StreamingPipeline:
    """Simulates end-to-end streaming parsing of a large input."""

    def __init__(self, device: DeviceSpec = TITAN_X_PASCAL,
                 cost_model: PipelineCostModel | None = None,
                 pcie: PcieLink | None = None,
                 output_ratio: float = 1.0,
                 carry_over_bytes: int = 1024):
        self.device = device
        self.cost_model = cost_model if cost_model is not None \
            else PipelineCostModel(device)
        self.pcie = pcie if pcie is not None \
            else PcieLink(bandwidth=device.pcie_bandwidth,
                          latency=device.pcie_latency)
        if output_ratio <= 0:
            raise StreamingError("output_ratio must be positive")
        self.output_ratio = output_ratio
        self.carry_over_bytes = carry_over_bytes

    # -- simulation ------------------------------------------------------------

    def simulate(self, total_bytes: int, partition_bytes: int,
                 stats_factory=WorkloadStats.yelp_like) -> PipelineSchedule:
        """Schedule all partitions; return the full timing record.

        Parameters
        ----------
        total_bytes:
            Input size.
        partition_bytes:
            Partition size (the Figure 12 x-axis).
        stats_factory:
            ``bytes -> WorkloadStats`` describing the dataset shape (use
            :meth:`WorkloadStats.yelp_like` / :meth:`~WorkloadStats.taxi_like`).
        """
        if total_bytes <= 0 or partition_bytes <= 0:
            raise StreamingError("sizes must be positive")
        # The double buffer must fit on the device: two input regions,
        # two data regions, carry-overs and the pipeline's auxiliary
        # memory (Figure 7's allocation diagram).
        footprint = 2 * partition_bytes * (1 + self.output_ratio) \
            + 2 * self.carry_over_bytes
        if footprint > self.device.memory_bytes:
            raise StreamingError(
                f"partition size {partition_bytes / 2 ** 20:.0f} MiB needs "
                f"{footprint / 2 ** 30:.1f} GiB of device memory for the "
                f"double buffer; {self.device.name} has "
                f"{self.device.memory_bytes / 2 ** 30:.0f} GiB")
        num_partitions = -(-total_bytes // partition_bytes)
        sizes = [min(partition_bytes,
                     total_bytes - i * partition_bytes)
                 for i in range(num_partitions)]

        buffers = DoubleBuffer()
        schedule = PipelineSchedule()
        htd_free = 0.0
        gpu_free = 0.0
        dth_free = 0.0
        transfer_end = [0.0] * num_partitions
        parse_end = [0.0] * num_partitions
        copy_end = [0.0] * num_partitions
        return_end = [0.0] * num_partitions

        copy_duration = (self.carry_over_bytes
                         / self.device.memory_bandwidth
                         + self.device.kernel_launch_overhead)

        for i, size in enumerate(sizes):
            side = i % 2
            other = 1 - side

            # transfer(i): HtD serial; input[side] must be reader-free.
            start = max(htd_free, buffers.earliest_write(side, "input"))
            end = start + self.pcie.transfer_seconds(size)
            buffers.write(side, "input", start, end)
            schedule.records.append(StageRecord("transfer", i, start, end))
            htd_free = end
            transfer_end[i] = end

            # parse(i): GPU serial; needs its input + carry written, and
            # data[side] free of the return reader.
            parse_seconds = self.cost_model.total_seconds(
                stats_factory(size))
            start = max(gpu_free, transfer_end[i],
                        buffers.earliest_read(side, "carry"),
                        buffers.earliest_write(side, "data"))
            end = start + parse_seconds
            buffers.read(side, "input", start, end)
            buffers.read(side, "carry", start, end)
            buffers.write(side, "data", start, end)
            schedule.records.append(StageRecord("parse", i, start, end))
            gpu_free = end
            parse_end[i] = end

            # copy(i): GPU serial; tail of input[side] -> carry[other].
            if i + 1 < num_partitions:
                start = max(gpu_free,
                            buffers.earliest_write(other, "carry"))
                end = start + copy_duration
                buffers.read(side, "input", start, end)
                buffers.write(other, "carry", start, end)
                schedule.records.append(StageRecord("copy", i, start, end))
                gpu_free = end
                copy_end[i] = end

            # return(i): DtH serial; reads data[side].
            start = max(dth_free, parse_end[i])
            end = start + self.pcie.transfer_seconds(
                size * self.output_ratio)
            buffers.read(side, "data", start, end)
            schedule.records.append(StageRecord("return", i, start, end))
            dth_free = end
            return_end[i] = end

        return schedule

    def end_to_end_seconds(self, total_bytes: int, partition_bytes: int,
                           stats_factory=WorkloadStats.yelp_like) -> float:
        """Makespan of the streamed parse (the Figure 12 y-axis)."""
        return self.simulate(total_bytes, partition_bytes,
                             stats_factory).makespan

    def non_streaming_seconds(self, total_bytes: int,
                              stats_factory=WorkloadStats.yelp_like
                              ) -> float:
        """Transfer-everything, parse, return-everything (no overlap)."""
        parse = self.cost_model.total_seconds(stats_factory(total_bytes))
        return (self.pcie.transfer_seconds(total_bytes) + parse
                + self.pcie.transfer_seconds(total_bytes
                                             * self.output_ratio))
