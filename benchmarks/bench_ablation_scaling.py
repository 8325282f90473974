"""Scalability ablation — the paper's central claim (§1, §6).

"Being designed for scalability from the ground up with a data parallel
approach that does not require any serial work, the presented approach is
future-proof and can continue to gain speed-ups, as more cores are being
added" — versus Instant Loading's safe mode, whose sequential pre-pass
caps the speed-up (Amdahl).

Regenerated here on the device model: on-GPU parsing time across scaled
devices (0.25x .. 4x Titan X cores, plus the V100 the intro cites), and
the Amdahl ceiling of the safe-mode baseline measured from its real
serial fraction on yelp-like data.  Written to
``results/ablation_scaling.txt``.
"""

import os

import pytest

from repro import ParPaRawParser, ParseOptions
from repro.baselines import InstantLoadingParser
from repro.dfa.dialects import Dialect
from repro.exec import SerialExecutor, ShardedExecutor
from repro.reference.gpusim.cost_model import PipelineCostModel, WorkloadStats
from repro.reference.gpusim.device import TITAN_X_PASCAL, V100
from repro.workloads import YELP_SCHEMA, generate_yelp_like

from conftest import MB, write_report


def test_core_scaling(benchmark, results_dir):
    stats = WorkloadStats.yelp_like(512 * MB)

    def sweep():
        rows = {}
        for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
            model = PipelineCostModel(TITAN_X_PASCAL.scaled(factor))
            rows[factor] = model.total_seconds(stats)
        rows["V100"] = PipelineCostModel(V100).total_seconds(stats)
        return rows

    rows = benchmark(sweep)

    base = rows[1.0]
    lines = [f"{'device':>12} {'cores':>7} {'time':>9} {'speedup':>8}"]
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        device = TITAN_X_PASCAL.scaled(factor)
        lines.append(f"{factor:>10.2g}x {device.num_cores:>7} "
                     f"{rows[factor] * 1e3:>8.1f}m "
                     f"{base / rows[factor]:>8.2f}")
    lines.append(f"{'V100':>12} {V100.num_cores:>7} "
                 f"{rows['V100'] * 1e3:>8.1f}m "
                 f"{base / rows['V100']:>8.2f}")
    write_report(results_dir / "ablation_scaling.txt",
                 "Scaling ablation: on-GPU time vs core count "
                 "(yelp 512 MB)", lines)

    # More cores -> strictly faster, approaching compute-proportional
    # gains while bandwidth-bound steps scale with the memory system.
    assert rows[0.25] > rows[0.5] > rows[1.0] > rows[2.0] > rows[4.0]
    assert base / rows[4.0] > 2.0           # substantial, sustained gain
    assert rows["V100"] < base              # the §1 5120-core part wins


def test_worker_scaling(benchmark, results_dir):
    """CPU analogue of the core-count sweep: the sharded executor.

    The same hierarchy the paper builds for GPU chunks (per-chunk STVs
    combined by a composition scan) is lifted one level to CPU shards,
    so the STV and tagging steps run embarrassingly parallel across a
    process pool.  Sweeps worker counts over a 64 MB yelp-like input and
    records the per-step breakdown; written to
    ``results/ablation_workers.txt``.
    """
    data = generate_yelp_like(64 * MB)
    options = ParseOptions(schema=YELP_SCHEMA)
    worker_counts = (1, 2, 4, 8)

    def sweep():
        rows = {}
        for workers in worker_counts:
            executor = SerialExecutor() if workers == 1 \
                else ShardedExecutor(workers=workers)
            try:
                result = ParPaRawParser(options,
                                        executor=executor).parse(data)
            finally:
                executor.close()
            rows[workers] = (result.step_seconds(), result.num_rows)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1,
                              warmup_rounds=0)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    base_steps, base_rows = rows[1]
    sharded_steps = ("parse", "scan", "tag")
    lines = [f"host CPUs available: {cpus}", ""]
    lines.append(f"{'workers':>8} {'parse':>8} {'scan':>8} {'tag':>8} "
                 f"{'total':>8} {'speedup':>8}")
    for workers in worker_counts:
        steps, num_rows = rows[workers]
        assert num_rows == base_rows
        total = sum(steps.values())
        lines.append(
            f"{workers:>8} "
            + " ".join(f"{steps[s] * 1e3:>7.0f}m" for s in sharded_steps)
            + f" {total * 1e3:>7.0f}m"
            + f" {sum(base_steps.values()) / total:>8.2f}")
    lines.append("")
    lines.append("sharded steps: parse (per-shard STVs), scan (composite "
                 "composition scan), tag (per-shard tagging + merge); "
                 "validate/partition/convert stay single-process.")
    write_report(results_dir / "ablation_workers.txt",
                 "Worker-count ablation: sharded executor over 64 MB "
                 "yelp-like data", lines)

    # Scaling of the data-parallel steps can only show when the host
    # actually has cores to run the shards on.
    if cpus >= 2:
        one = sum(rows[1][0][s] for s in sharded_steps)
        two = sum(rows[2][0][s] for s in sharded_steps)
        assert two < one


def test_amdahl_ceiling_of_safe_mode(benchmark, results_dir, yelp_1mb):
    """The counterpoint: Instant Loading's safe mode cannot scale."""
    parser = InstantLoadingParser(Dialect(strip_carriage_return=False),
                                  num_threads=8, safe_mode=True)

    def measure():
        parser.parse_rows(yelp_1mb)
        return parser.serial_fraction()

    serial = benchmark.pedantic(measure, rounds=2, iterations=1,
                                warmup_rounds=0)
    lines = [f"serial fraction on yelp-like data: {serial:.2%}",
             ""]
    for cores in (4, 32, 3584):
        lines.append(f"Amdahl speed-up bound on {cores:>5} cores: "
                     f"{parser.amdahl_speedup(cores):6.2f}x")
    lines.append("")
    lines.append("ParPaRaw performs zero serial work; its bound is the "
                 "core count itself (paper contribution 1).")
    write_report(results_dir / "ablation_amdahl.txt",
                 "Amdahl ceiling of the safe-mode baseline", lines)

    assert serial > 0.3
    assert parser.amdahl_speedup(3584) < 4.0
