"""Figure 12 — end-to-end duration as a function of the partition size.

Paper: streamed end-to-end time falls with partition size, bottoms out at
128 MB (yelp, 0.44 s for 4.8 GB) / 256 MB (taxi), then grows again because
the un-overlapped first transfer and last return grow with the partition.

Here: the working StreamingParser measured at several partition sizes
(wall-clock, laptop scale — the *functional* counterpart), plus the
paper-scale U-curve from the Figure 7 pipeline simulation.
"""

import pytest

from repro import ParseOptions, StreamingParser
from repro.reference.gpusim.cost_model import WorkloadStats
from repro.obs import MetricsRegistry, validate_chrome_trace, write_chrome_trace
from repro.reference.streaming.pipeline import StreamingPipeline
from repro.workloads import generate_yelp_like

from conftest import GB, MB, run_benchmark, write_report


@pytest.mark.parametrize("partition_kb", [16, 64, 256])
def test_wallclock_streaming(benchmark, yelp_schema, partition_kb):
    data = generate_yelp_like(512 * 1024, seed=7)
    options = ParseOptions(schema=yelp_schema)
    partition = partition_kb * 1024

    metrics = MetricsRegistry()

    def run():
        metrics.clear()
        stream = StreamingParser(options, metrics=metrics)
        for start in range(0, len(data), partition):
            stream.feed(data[start:start + partition])
        return stream.finish()

    table = run_benchmark(benchmark, run)
    assert table.num_rows > 0
    # Embed the merged pipeline metrics in the benchmark record so the
    # saved .json results carry the per-partition-size accounting.
    benchmark.extra_info["metrics"] = metrics.to_dict()
    assert metrics.counters["stream.partitions"] == \
        -(-len(data) // partition)


def test_figure12_simulated(benchmark, results_dir):
    pipeline = StreamingPipeline()
    partitions_mb = [4, 8, 16, 32, 64, 128, 256, 512]

    def sweep():
        out = {}
        for factory, name, total in (
                (WorkloadStats.yelp_like, "yelp", 4.823 * GB),
                (WorkloadStats.taxi_like, "taxi", 9.073 * GB)):
            out[name] = [pipeline.end_to_end_seconds(int(total), p * MB,
                                                     factory)
                         for p in partitions_mb]
        return out

    curves = benchmark(sweep)

    lines = [f"{'partition':>10} {'yelp 4.8GB':>11} {'taxi 9.1GB':>11}"]
    for i, p in enumerate(partitions_mb):
        lines.append(f"{p:>8}MB {curves['yelp'][i]:>10.3f}s "
                     f"{curves['taxi'][i]:>10.3f}s")
    lines.append("")
    lines.append("paper: yelp best ~0.44s near 128MB; taxi best ~0.9s "
                 "near 256MB; U-shape on both")
    write_report(results_dir / "fig12_partition_size.txt",
                 "Figure 12: end-to-end duration vs partition size",
                 lines)

    for name in ("yelp", "taxi"):
        series = curves[name]
        best = min(range(len(series)), key=series.__getitem__)
        assert 2 <= best <= 6          # optimum in the 16-256 MB region
        assert series[0] > series[best]
        assert series[-1] > series[best]
    assert 0.40 < min(curves["yelp"]) < 0.60
    assert 0.75 < min(curves["taxi"]) < 1.40

    # Export the optimal yelp schedule as a Chrome trace so the overlap
    # structure behind the U-curve minimum can be inspected in Perfetto.
    best_mb = partitions_mb[min(range(len(partitions_mb)),
                                key=curves["yelp"].__getitem__)]
    schedule = pipeline.simulate(int(4.823 * GB), best_mb * MB,
                                 WorkloadStats.yelp_like)
    trace_path = results_dir / "fig12_best_schedule_trace.json"
    write_chrome_trace(trace_path, schedule.spans())
    assert validate_chrome_trace(schedule.to_chrome_trace()) == []
