"""`--plan auto` vs fixed configurations — the planner acceptance bench.

For each fig13 workload, times a grid of fixed knob settings (the paper
default, smaller/larger chunks, narrow strides)
against the self-tuning path: ``Planner.refine`` runs a few calibration
parses (planning cost, excluded from the steady state like every other
cell's warm-up), then the chosen plan is timed exactly like the fixed
cells.  Two artefacts:

* ``BENCH_plan.json`` at the repo root — rows
  ``{workload, config, chunk, stride, seconds, mb_per_s}``
  plus the auto cell's full :class:`~repro.plan.PlanDecision` dict
  (candidates, scores, loser reasons) so the committed numbers carry
  their own rationale;
* ``benchmarks/results/plan_auto.txt`` — the human-readable table
  backing the acceptance criterion (auto ≥ every fixed config on every
  workload, strictly better than the default on at least one).

Timing discipline: a warm-up parse to build the k-gram tables, then
best-of-N on the *stage timers* — all stages, since the planner trades
chunking and striding against each other.  The cells of one workload
are timed round-robin, one parse of every config per round, so slow
periods of a shared machine bias every config equally instead of
whichever cell they landed on.  Runnable standalone for the check.sh smoke:

    python benchmarks/bench_plan.py --bytes 131072 --repeats 2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro import Dialect, ParPaRawParser, ParseOptions
from repro.kernels import clear_cache
from repro.plan import Planner
from repro.workloads import generate_taxi_like, generate_yelp_like

MB = 1024 ** 2
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_plan.json"

NO_CR = Dialect(strip_carriage_return=False)
PIPE_NO_CR = Dialect(delimiter=b"|", quote=None, strip_carriage_return=False)

#: The fixed grid auto competes against.  Explicit strides bring a
#: budget their table plan fits (ParseOptions rejects over-budget
#: strides up front); everything else keeps production defaults.
FIXED_CONFIGS: tuple[tuple[str, dict], ...] = (
    ("default", {}),
    ("chunk-16", {"chunk_size": 16}),
    ("chunk-64", {"chunk_size": 64}),
    ("stride-1", {"kernel_stride": 1}),
    ("stride-2", {"kernel_stride": 2, "kernel_table_budget": 1 << 30}),
)


def generate_logs_like(target_bytes: int, seed: int = 13) -> bytes:
    """Pipe-delimited log lines (taxi rows re-delimited — same field
    statistics, no quoting)."""
    return generate_taxi_like(target_bytes, seed=seed).replace(b",", b"|")


def _resolved_key(options: ParseOptions) -> tuple:
    """The configuration a parse with ``options`` actually runs: chunk
    size and the stride the table budget admits.  Cells that resolve
    identically (e.g. auto choosing exactly the chunk-64 grid point) are
    the same measurement, not two noisy ones."""
    return options.chunk_size, options.resolved_stride()


def bench_workload(name: str, dialect: Dialect, data: bytes,
                   repeats: int, rounds: int) -> list[dict]:
    # The self-tuning path first: refine() parses a handful of candidate
    # configurations to calibrate the cost model against this machine
    # (planning cost, outside the steady state like every cell's
    # warm-up), then the calibrated winner joins the timing grid.
    planner = Planner()
    decision = planner.refine(
        data, ParseOptions(dialect=dialect, plan="auto"), rounds=rounds)

    cells = [(config, ParseOptions(dialect=dialect, **knobs))
             for config, knobs in FIXED_CONFIGS]
    cells.append(("auto", decision.chosen))

    # One workload's cells share the table cache (at most a few distinct
    # (dfa, k) pairs, well under the LRU capacity), so a single warm-up
    # pass leaves every parser at steady state.  One parser per distinct
    # *resolved* configuration, timed round-robin.
    clear_cache()
    parsers = {key: ParPaRawParser(options)
               for config, options in cells
               for key in (_resolved_key(options),)}
    for parser in parsers.values():
        parser.parse(data)
    best: dict[tuple, float] = {}
    for _ in range(repeats):
        for key, parser in parsers.items():
            total = sum(parser.parse(data).timer.totals().values())
            if key not in best or total < best[key]:
                best[key] = total

    rows = []
    for config, options in cells:
        chunk, stride = _resolved_key(options)
        seconds = best[(chunk, stride)]
        rows.append({
            "workload": name, "config": config, "input_bytes": len(data),
            "chunk": chunk, "stride": stride,
            "seconds": round(seconds, 6),
            "mb_per_s": round(len(data) / MB / seconds, 2),
            **({"decision": decision.as_dict()} if config == "auto"
               else {}),
        })
    return rows


def report_lines(rows: list[dict]) -> list[str]:
    lines = [f"{'workload':>10} {'config':>10} {'chunk':>6} {'stride':>7} "
             f"{'total (ms)':>11} {'MB/s':>8} {'vs default':>10}"]
    for workload in dict.fromkeys(r["workload"] for r in rows):
        group = [r for r in rows if r["workload"] == workload]
        base = next(r for r in group if r["config"] == "default")
        for r in group:
            lines.append(
                f"{workload:>10} {r['config']:>10} {r['chunk']:>6} "
                f"{r['stride']:>7} {r['seconds'] * 1e3:11.2f} {r['mb_per_s']:8.1f} "
                f"{base['seconds'] / r['seconds']:9.2f}x")
        auto = next(r for r in group if r["config"] == "auto")
        chosen = auto["decision"]["chosen"]
        lines.append(f"{'':>10} auto chose chunk={chosen['chunk_size']} "
                     f"stride={chosen['kernel_stride']} "
                     f"(fingerprint {auto['decision']['fingerprint']})")
    lines.append("")
    lines.append("auto = Planner.refine() calibrates the cost model on a "
                 "few candidate parses, then times the chosen plan;")
    lines.append("vs default = default config total / this row's total")
    return lines


def default_workloads(target_bytes: int) -> dict:
    return {"yelp": (NO_CR, generate_yelp_like(target_bytes, seed=7)),
            "taxi": (NO_CR, generate_taxi_like(target_bytes, seed=11)),
            "logs": (PIPE_NO_CR, generate_logs_like(target_bytes, seed=13))}


def run(workloads: dict[str, tuple[Dialect, bytes]], repeats: int,
        rounds: int, json_path: pathlib.Path) -> list[dict]:
    rows = []
    for name, (dialect, data) in workloads.items():
        rows.extend(bench_workload(name, dialect, data, repeats, rounds))
    json_path.write_text(json.dumps({
        "benchmark": "plan_auto_vs_fixed",
        "fixed_configs": [name for name, _ in FIXED_CONFIGS],
        "refine_rounds": rounds,
        "rows": rows,
    }, indent=2) + "\n")
    return rows


# -- pytest entry points ------------------------------------------------------

def test_plan_auto_vs_fixed(results_dir):
    workloads = default_workloads(1 * MB)
    rows = run(workloads, repeats=7, rounds=4, json_path=BENCH_JSON)

    from conftest import write_report
    write_report(results_dir / "plan_auto.txt",
                 "Self-tuning planner: --plan auto vs fixed configs (1 MB)",
                 report_lines(rows))

    # The committed artefacts carry the measured margins; here we assert
    # floors loose enough that machine noise cannot flake the gate.
    for workload in workloads:
        group = {r["config"]: r for r in rows
                 if r["workload"] == workload}
        best_fixed = min(r["seconds"] for c, r in group.items()
                         if c != "auto")
        assert group["auto"]["seconds"] <= best_fixed * 1.10, (
            f"auto lost to a fixed config on {workload}")
        # The chosen plan is concrete and the decision is self-describing.
        chosen = group["auto"]["decision"]["chosen"]
        assert chosen["chunk_size"] == group["auto"]["chunk"]
        assert group["auto"]["decision"]["rationale"]


# -- standalone smoke (scripts/check.sh) --------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bytes", type=int, default=1 * MB)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--out", type=pathlib.Path, default=BENCH_JSON)
    args = parser.parse_args(argv)

    rows = run(default_workloads(args.bytes), args.repeats, args.rounds,
               args.out)
    print("\n".join(report_lines(rows)))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
