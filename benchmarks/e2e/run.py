"""The end-to-end benchmark: one command, four workloads, every layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload taxi-8m --seed 1 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 1 --out parent.json
    python3 benchmarks/e2e/run.py --workload all --smoke
    python3 benchmarks/e2e/run.py --compare parent.json change.json

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced pass that gives the per-layer
metrics.  The metric names, units, bounds and workloads are declared in
``BENCHMARK.json``; a run whose metrics differ from that declaration
fails.  The last line of the output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the environment and each metric's median, quartiles and
sample count.  See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys

import numpy

from common import REPO_ROOT, WORKLOADS

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
#: Default run length under ``--smoke`` (64 KiB inputs).
SMOKE_SECONDS = 2.0


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def measure(args):
    workload = WORKLOADS[args.workload]
    if args.trace:
        import layers as driver
    elif workload.kind == "library":
        import library as driver
    else:
        import serve_load as driver
    return driver.run(workload, args.seed, args.seconds, args.smoke)


def environment(args, out) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **out.environment,
    }


def append_run(path: str, record: dict) -> None:
    """Add one run to a ``--out`` file (created on first use)."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        doc = {"runs": []}
    doc["runs"].append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)


def run_one(args, benchmark: dict) -> int:
    out = measure(args)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark[section]}
    measured = {name: unit for name, (_, unit) in out.metrics.items()}
    if measured != declared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(measured) ^ set(declared))}")
    bad = [n for n, (v, _) in out.metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"metrics without a finite value: {bad}")

    for name in declared:
        value, unit = out.metrics[name]
        d = out.detail[name]
        print(f"{name:<30} {value:12.4f} {unit:<6} "
              f"[q1 {d['q1']:.4f}  q3 {d['q3']:.4f}  n={d['n']}]")
    for problem in out.problems:
        print(f"problem: {problem}")
    env = environment(args, out)
    print(json.dumps({"environment": env, "detail": out.detail,
                      "problems": out.problems}))
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name][0],
                           "unit": out.metrics[name][1]}
                    for name in declared},
    }
    if args.out:
        append_run(args.out, {"workload": args.workload, "seed": args.seed,
                              "trace": args.trace, "environment": env,
                              "detail": out.detail, "result": result})
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process (peak RSS is per process)."""
    results, status = {}, 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        command += ["--smoke"] if args.smoke else []
        command += ["--out", args.out] if args.out else []
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = 1
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed loop length (default: run_seconds "
                             "from BENCHMARK.json, 2 under --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="64 KiB inputs, 2 s per workload")
    parser.add_argument("--out", help="append the run to this JSON file")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT.json", "CHANGE.json"))
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.compare:
        from compare import compare
        return compare(*args.compare, benchmark)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke \
            else float(benchmark["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
