#!/usr/bin/env python
"""End-to-end streaming: partitioned parsing with record carry-over (§4.4).

Feeds a dataset to :class:`repro.StreamingParser` in small partitions —
records routinely straddle partition boundaries and are carried over —
then shows the simulated device-side pipeline (Figure 7) and the partition
-size trade-off (Figure 12) on the GPU cost model.

Run: ``python examples/streaming_ingest.py``
"""

from repro import ParPaRawParser, ParseOptions, StreamingParser
from repro.reference.gpusim.cost_model import WorkloadStats
from repro.reference.streaming.pipeline import StreamingPipeline
from repro.workloads import YELP_SCHEMA, generate_yelp_like

MB = 1024 ** 2
GB = 1e9


def functional_streaming() -> None:
    data = generate_yelp_like(120_000, seed=21)
    options = ParseOptions(schema=YELP_SCHEMA)

    stream = StreamingParser(options)
    partition_size = 8 * 1024
    partitions = 0
    for start in range(0, len(data), partition_size):
        stream.feed(data[start:start + partition_size])
        partitions += 1
    table = stream.finish()

    batch = ParPaRawParser(options).parse(data).table
    assert table.to_pylist() == batch.to_pylist()
    print(f"streamed {len(data):,} bytes in {partitions} partitions "
          f"of {partition_size // 1024} KiB -> {table.num_rows} records, "
          f"identical to the batch parse ✓")
    carried = stream.carry_sizes
    print(f"carry-over per partition: min={min(carried)} "
          f"max={max(carried)} avg={sum(carried) / len(carried):.0f} bytes")


def simulated_pipeline() -> None:
    print("\nFigure 12 on the device model — 4.8 GB yelp-like input:")
    pipeline = StreamingPipeline()
    total = int(4.823 * GB)
    print(f"  {'partition':>10} {'end-to-end':>12}")
    for partition_mb in (4, 8, 16, 32, 64, 128, 256, 512):
        seconds = pipeline.end_to_end_seconds(
            total, partition_mb * MB, WorkloadStats.yelp_like)
        print(f"  {partition_mb:>8}MB {seconds:>11.3f}s")
    naive = pipeline.non_streaming_seconds(total)
    bare = pipeline.pcie.min_transfer_time(total)
    print(f"  without overlapping: {naive:.3f}s; "
          f"bare PCIe transfer alone: {bare:.3f}s")
    print("  -> streaming hides parsing almost entirely behind the bus "
          "(paper §6)")


def main() -> None:
    functional_streaming()
    simulated_pipeline()


if __name__ == "__main__":
    main()
