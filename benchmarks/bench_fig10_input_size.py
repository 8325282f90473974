"""Figure 10 — parsing rate as a function of the input size.

Paper: on-GPU rate grows with input size (kernel-launch overhead amortises)
from ~2.1-2.7 GB/s at 1 MB to ~14.2 GB/s at 512 MB (yelp).

Here: wall-clock parsing rate of the real pipeline over a size sweep (the
same *shape*: rate grows and flattens), plus the paper-scale curve on the
device model, written to ``results/fig10_input_size.txt``.
"""

import pytest

from repro import ParPaRawParser, ParseOptions
from repro.reference.gpusim.cost_model import PipelineCostModel, WorkloadStats
from repro.workloads import generate_yelp_like

from conftest import MB, run_benchmark, write_report


@pytest.mark.parametrize("size_kb", [64, 256, 1024])
def test_wallclock_rate_yelp(benchmark, yelp_schema, size_kb):
    data = generate_yelp_like(size_kb * 1024, seed=7)
    parser = ParPaRawParser(ParseOptions(schema=yelp_schema))
    result = run_benchmark(benchmark, parser.parse, data)
    assert result.num_rows > 0


def test_wallclock_rate_grows_with_size(benchmark, yelp_schema):
    """The measured counterpart of Figure 10's left edge: a very small
    parse pays fixed per-parse overhead, so its rate trails a larger one.

    The Python substrate's fixed costs are milliseconds, not the GPU's
    5-10 µs kernel launches, and vectorised-op efficiency varies with
    array size, so this wall-clock check uses a tiny input and a tolerant
    bound; the authoritative Figure 10 *shape* claim is the simulated
    test below.
    """
    import time

    def measure():
        rates = []
        for size in (2 * 1024, 256 * 1024):
            data = generate_yelp_like(size, seed=7)
            parser = ParPaRawParser(ParseOptions(schema=yelp_schema))
            parser.parse(data)  # warm up
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                parser.parse(data)
                samples.append(time.perf_counter() - start)
            rates.append(len(data) / sorted(samples)[2])  # median
        return rates

    rates = run_benchmark(benchmark, measure, rounds=1)
    assert rates[-1] > 0.8 * rates[0]


def test_figure10_simulated(benchmark, results_dir):
    model = PipelineCostModel()
    sizes_mb = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]

    def sweep():
        out = {}
        for factory, name in ((WorkloadStats.yelp_like, "yelp"),
                              (WorkloadStats.taxi_like, "taxi")):
            out[name] = [model.parsing_rate(factory(s * MB))
                         for s in sizes_mb]
        return out

    curves = benchmark(sweep)

    lines = [f"{'size':>7} {'yelp GB/s':>10} {'taxi GB/s':>10}"]
    for i, size in enumerate(sizes_mb):
        lines.append(f"{size:>5}MB {curves['yelp'][i] / 1e9:>10.2f} "
                     f"{curves['taxi'][i] / 1e9:>10.2f}")
    lines.append("")
    lines.append("paper: yelp ~2.7 GB/s @1MB, ~9.75 GB/s @10MB, "
                 "peak 14.2 GB/s; taxi ~2.1 GB/s @1MB")
    write_report(results_dir / "fig10_input_size.txt",
                 "Figure 10: parsing rate vs input size", lines)

    for name in ("yelp", "taxi"):
        series = curves[name]
        assert all(a < b for a, b in zip(series, series[1:])), name
    assert 1.8e9 < curves["yelp"][0] < 4.5e9
    assert curves["taxi"][0] < curves["yelp"][0]
