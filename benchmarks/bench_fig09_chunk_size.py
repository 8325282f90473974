"""Figure 9 — time per processing step as a function of the chunk size.

Paper: 512 MB of yelp/taxi on a Titan X; steps parse / scan / tag /
partition / convert over chunk sizes 4..64; best at 31 bytes; spikes at
32/48/64 from shared-memory bank conflicts; overhead explosion below
~16 bytes.

Here: wall-clock step breakdown of the real pipeline at 1 MB for a few
chunk sizes (pytest-benchmark), plus the full paper-scale sweep on the
calibrated device model, written to ``results/fig09_chunk_size.txt``.
"""

import pytest

from repro import ParPaRawParser, ParseOptions
from repro.reference.gpusim.cost_model import PipelineCostModel, WorkloadStats

from conftest import MB, run_benchmark, write_report

STEPS = ("parse", "scan", "tag", "partition", "convert")


@pytest.mark.parametrize("chunk_size", [4, 16, 31, 64])
def test_wallclock_yelp(benchmark, yelp_1mb, yelp_schema, chunk_size):
    parser = ParPaRawParser(ParseOptions(schema=yelp_schema,
                                         chunk_size=chunk_size))
    result = run_benchmark(benchmark, parser.parse, yelp_1mb)
    assert result.num_rows > 0


@pytest.mark.parametrize("chunk_size", [4, 31])
def test_wallclock_taxi(benchmark, taxi_1mb, taxi_schema, chunk_size):
    parser = ParPaRawParser(ParseOptions(schema=taxi_schema,
                                         chunk_size=chunk_size))
    result = run_benchmark(benchmark, parser.parse, taxi_1mb)
    assert result.num_rows > 0


def test_figure9_simulated(benchmark, results_dir):
    """Regenerate both panels of Figure 9 on the device model."""
    model = PipelineCostModel()
    chunk_sizes = [4, 8, 12, 15, 16, 24, 31, 32, 40, 48, 56, 64]

    def sweep():
        rows = {}
        for factory, name in ((WorkloadStats.yelp_like, "yelp"),
                              (WorkloadStats.taxi_like, "taxi")):
            for cs in chunk_sizes:
                costs = model.step_costs(factory(512 * MB, chunk_size=cs))
                rows[(name, cs)] = costs
        return rows

    rows = benchmark(sweep)

    lines = []
    for name in ("yelp", "taxi"):
        lines.append(f"-- {name} (512 MB, simulated Titan X) --")
        lines.append(f"{'chunk':>6} " + " ".join(f"{s:>10}" for s in STEPS)
                     + f" {'total':>10}")
        for cs in chunk_sizes:
            costs = rows[(name, cs)]
            cells = " ".join(f"{getattr(costs, s) * 1e3:9.2f}m"
                             for s in STEPS)
            lines.append(f"{cs:>6} {cells} {costs.total * 1e3:9.2f}m")
        lines.append("")
    write_report(results_dir / "fig09_chunk_size.txt",
                 "Figure 9: per-step duration vs chunk size", lines)

    # Shape assertions vs the paper.
    yelp31 = rows[("yelp", 31)].total
    assert rows[("yelp", 4)].total > yelp31          # tiny-chunk overhead
    assert rows[("yelp", 32)].total > yelp31         # bank-conflict spike
    assert rows[("yelp", 64)].total > rows[("yelp", 56)].total
    assert rows[("taxi", 31)].convert > rows[("yelp", 31)].convert
