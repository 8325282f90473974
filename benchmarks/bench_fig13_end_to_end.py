"""Figure 13 — end-to-end comparison against the other systems.

Paper (4.823 GB yelp / 9.073 GB taxi): ParPaRaw 0.44/0.9 s, cuDF* 7.3/9.4,
cuDF 10.5/16.5, Inst. Loading x/3.6, MonetDB 58.2/38.0, Spark 94.3/98.1,
pandas 91.3/83.4 — and Instant Loading *fails* on yelp.

Two reproductions:

* **relative wall-clock** between the implementations we actually run —
  ParPaRaw (vectorised), the sequential FSM parser, Instant Loading
  (unsafe + safe) and the quote-count parser — at 1 MB.  Absolute numbers
  are Python-speed, but who-beats-whom and the yelp-failure reproduce.
* **paper-scale table** combining the ParPaRaw streaming simulation with
  the calibrated comparator models, written to
  ``results/fig13_end_to_end.txt``.
"""

import time

import pytest

from repro import Dialect, ParPaRawParser, ParseOptions
from repro.baselines import (
    InstantLoadingParser,
    QuoteCountParser,
    SequentialParser,
    stdlib_csv_rows,
)
from repro.baselines.system_models import PAPER_SYSTEMS, modelled_duration
from repro.errors import SimulationError
from repro.reference.gpusim.cost_model import WorkloadStats
from repro.obs import MetricsRegistry, Tracer
from repro.reference.streaming.pipeline import StreamingPipeline

from conftest import GB, MB, run_benchmark, write_report

NO_CR = Dialect(strip_carriage_return=False)
YELP_BYTES = 4.823 * GB
TAXI_BYTES = 9.073 * GB


# -- measured relative comparison -------------------------------------------

def test_parparaw_yelp(benchmark, yelp_1mb):
    parser = ParPaRawParser(ParseOptions(dialect=NO_CR))
    run_benchmark(benchmark, parser.parse, yelp_1mb)


def test_parparaw_taxi(benchmark, taxi_1mb):
    parser = ParPaRawParser(ParseOptions(dialect=NO_CR))
    run_benchmark(benchmark, parser.parse, taxi_1mb)


def test_sequential_yelp(benchmark, yelp_1mb):
    parser = SequentialParser(ParseOptions(dialect=NO_CR))
    run_benchmark(benchmark, parser.parse_rows, yelp_1mb)


def test_sequential_taxi(benchmark, taxi_1mb):
    parser = SequentialParser(ParseOptions(dialect=NO_CR))
    run_benchmark(benchmark, parser.parse_rows, taxi_1mb)


def test_instant_loading_safe_taxi(benchmark, taxi_1mb):
    parser = InstantLoadingParser(NO_CR, num_threads=8, safe_mode=True)
    run_benchmark(benchmark, parser.parse_rows, taxi_1mb)


def test_quote_count_yelp(benchmark, yelp_1mb):
    parser = QuoteCountParser(NO_CR)
    run_benchmark(benchmark, parser.parse_rows, yelp_1mb)


def test_stdlib_csv_yelp(benchmark, yelp_1mb):
    run_benchmark(benchmark, stdlib_csv_rows, yelp_1mb, NO_CR)


def test_instant_loading_unsafe_fails_on_yelp(benchmark, yelp_1mb):
    """The paper's footnote result: Inst. Loading cannot handle yelp."""
    unsafe = InstantLoadingParser(NO_CR, num_threads=8)
    rows = run_benchmark(benchmark, unsafe.parse_rows, yelp_1mb)
    reference = SequentialParser(ParseOptions(dialect=NO_CR))
    assert rows != reference.parse_rows(yelp_1mb)


# -- observability overhead ---------------------------------------------------

def test_obs_disabled_overhead(benchmark, yelp_1mb, results_dir):
    """Acceptance gate: with tracing/metrics left at their NULL defaults
    the pipeline takes the exact pre-observability path — the only
    addition is one ``enabled`` check per stage.  The bound is measured
    deterministically (guard cost x stage count vs parse time) rather
    than by differencing two noisy wall-clock runs; an enabled-path run
    is reported alongside for context.
    """
    parser = ParPaRawParser(ParseOptions(dialect=NO_CR))
    result = run_benchmark(benchmark, parser.parse, yelp_1mb)
    assert result.num_rows > 0

    # Cost of the disabled-path guard, amortised over many evaluations.
    tracer, metrics = parser.tracer, parser.metrics
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        if not tracer.enabled and not metrics.enabled:
            pass
    guard_seconds = (time.perf_counter() - t0) / n

    t0 = time.perf_counter()
    parser.parse(yelp_1mb)
    parse_seconds = time.perf_counter() - t0

    num_stages = 8                      # prune .. convert
    overhead = guard_seconds * num_stages / parse_seconds
    assert overhead <= 0.02             # the issue's <=2% requirement

    # For the report only: the fully *enabled* path, same input.
    traced = ParPaRawParser(ParseOptions(dialect=NO_CR), tracer=Tracer(),
                            metrics=MetricsRegistry())
    t0 = time.perf_counter()
    traced.parse(yelp_1mb)
    enabled_seconds = time.perf_counter() - t0

    write_report(results_dir / "obs_overhead.txt",
                 "Observability overhead (disabled tracer must be free)", [
        f"parse (obs disabled, 1 MB yelp): {parse_seconds * 1e3:8.2f} ms",
        f"parse (obs enabled,  1 MB yelp): {enabled_seconds * 1e3:8.2f} ms",
        f"disabled-path guard:             {guard_seconds * 1e9:8.1f} ns"
        f" x {num_stages} stages",
        f"disabled overhead vs parse:      {overhead * 100:8.4f} %"
        "  (bound: 2%)",
        f"spans recorded when enabled:     {len(traced.tracer.spans):8d}",
    ])


# -- paper-scale table --------------------------------------------------------

def test_figure13_simulated(benchmark, results_dir):
    pipeline = StreamingPipeline()

    def build():
        rows = {}
        rows["ParPaRaw"] = (
            min(pipeline.end_to_end_seconds(int(YELP_BYTES), p * MB,
                                            WorkloadStats.yelp_like)
                for p in (64, 128, 256)),
            min(pipeline.end_to_end_seconds(int(TAXI_BYTES), p * MB,
                                            WorkloadStats.taxi_like)
                for p in (128, 256, 512)))
        for system in PAPER_SYSTEMS:
            try:
                yelp = modelled_duration(system, YELP_BYTES, True)
            except SimulationError:
                yelp = None
            taxi = modelled_duration(system, TAXI_BYTES, False)
            rows[system] = (yelp, taxi)
        return rows

    rows = benchmark(build)

    paper = {"ParPaRaw": (0.44, 0.9), "cuDF*": (7.3, 9.4),
             "cuDF": (10.5, 16.5), "Inst. Loading": (None, 3.6),
             "MonetDB": (58.2, 38.0), "Spark": (94.3, 98.1),
             "pandas": (91.3, 83.4)}
    lines = [f"{'system':>14} {'yelp (ours)':>12} {'yelp (paper)':>13} "
             f"{'taxi (ours)':>12} {'taxi (paper)':>13}"]
    for system, (yelp, taxi) in rows.items():
        py, pt = paper[system]
        ys = f"{yelp:10.2f}s" if yelp is not None else f"{'x':>11}"
        pys = f"{py:11.2f}s" if py is not None else f"{'x':>12}"
        lines.append(f"{system:>14} {ys} {pys} {taxi:10.2f}s {pt:11.2f}s")
    lines.append("")
    lines.append("('x' = failed: incomplete handling of quoted strings)")
    write_report(results_dir / "fig13_end_to_end.txt",
                 "Figure 13: end-to-end duration comparison", lines)

    # Shape: ParPaRaw fastest; >10x over cuDF; Inst. Loading ~4x slower
    # than ParPaRaw on taxi; CPU systems >40x slower.
    yelp_ours, taxi_ours = rows["ParPaRaw"]
    assert yelp_ours < rows["cuDF"][0] / 10
    assert rows["Inst. Loading"][1] / taxi_ours > 2.5
    assert rows["MonetDB"][0] / yelp_ours > 40
    assert rows["Inst. Loading"][0] is None
