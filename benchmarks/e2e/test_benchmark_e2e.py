"""Tests of the end-to-end benchmark itself (not of the parser).

Run from the repository root::

    python -m pytest benchmarks/e2e -q

The smoke runs take a few seconds per workload.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import REPO_ROOT, WORKLOADS, shm_segments  # noqa: E402
from compare import compare, judge  # noqa: E402
from spans import SpanRecorder  # noqa: E402

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """One ``--smoke`` run: its report line and its result line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def serve_processes() -> list[str]:
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"repro\0serve" in cmdline:
                found.append(entry.name)
    return found


def test_benchmark_json_declares_four_workloads():
    assert list(BENCHMARK["workloads"][i]["name"] for i in range(4)) \
        == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_reported(workload):
    shm_before = shm_segments()
    report, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["detail"]) == set(declared)
    for key in ("python", "numpy", "nproc", "start_method", "seed",
                "input_bytes", "seconds", "ref.stdlib_csv_mb_s"):
        assert key in report["environment"]
    if WORKLOADS[workload].kind == "serve":
        assert serve_processes() == []
        assert shm_segments() - shm_before == set()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_per_layer_metric_is_reported(workload):
    report, result = smoke(workload, 1)
    assert result["correct"], report["problems"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    trace = json.loads(
        (BENCH_DIR / report["environment"]["trace_file"]).read_text())
    spans = {e["args"]["id"]: e for e in trace["traceEvents"]
             if e["ph"] == "X"}
    threads = {e["tid"] for e in spans.values()}
    assert len(threads) > 1     # the main thread and the client threads
    for event in spans.values():
        parent = spans.get(event["args"]["parent"])
        if parent is not None:
            assert parent["tid"] == event["tid"]
            assert parent["args"]["request"] == event["args"]["request"]
            assert parent["ts"] <= event["ts"] + 1e-3
            assert event["ts"] + event["dur"] \
                <= parent["ts"] + parent["dur"] + 1e-3


def test_fails_without_the_package(tmp_path):
    """A directory holding only the benchmark must fail, not report."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "yelp-8m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_span_recorder_nests_per_thread():
    rec = SpanRecorder()
    barrier = threading.Barrier(2)

    def worker():
        with rec.span("outer"):
            barrier.wait(timeout=10)
            with rec.span("inner"):
                barrier.wait(timeout=10)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    outer = {s.id: s for s in rec.named("outer")}
    inner = rec.named("inner")
    assert len(outer) == 2 and len(inner) == 2
    for span in inner:
        assert outer[span.parent].tid == span.tid
        assert outer[span.parent].request == span.request
    assert len({s.request for s in inner}) == 2


# -- compare mode ------------------------------------------------------------

def run_file(path, values: dict[str, list[float]], failed: int = 0):
    runs = []
    for i in range(len(next(iter(values.values())))):
        metrics = {name: {"value": vals[i], "unit": "x"}
                   for name, vals in values.items()}
        for workload in WORKLOADS:
            runs.append({"workload": workload, "seed": i, "trace": 0,
                         "environment": {"ref.stdlib_csv_mb_s": 40.0},
                         "result": {"correct": True, "attempted": 100,
                                    "failed": failed,
                                    "metrics": metrics}})
    path.write_text(json.dumps({"runs": runs}))
    return path


def baseline(scale: dict[str, float] | None = None):
    scale = scale or {}
    noise = [1.0, 1.01, 0.99, 1.005, 0.995, 1.0, 1.02, 0.98, 1.0, 1.01]
    return {m["name"]: [10.0 * n * scale.get(m["name"], 1.0)
                        for n in noise]
            for m in BENCHMARK["end_to_end"]}


def test_compare_passes_an_identical_pair(tmp_path, capsys):
    parent = run_file(tmp_path / "parent.json", baseline())
    change = run_file(tmp_path / "change.json", baseline())
    assert compare(parent, change, BENCHMARK) == 0
    out = capsys.readouterr().out
    assert "regressed" not in out and "unresolved" not in out


def test_compare_flags_a_twenty_percent_regression(tmp_path, capsys):
    parent = run_file(tmp_path / "parent.json", baseline())
    change = run_file(tmp_path / "change.json",
                      baseline({"speedup_vs_csv": 0.8,
                                "latency_p50_ms": 1.25}))
    assert compare(parent, change, BENCHMARK) == 1
    lines = capsys.readouterr().out.splitlines()
    flagged = {tuple(line.split()[:2]) for line in lines
               if line.endswith("regressed")}
    assert flagged == {(w, m) for w in WORKLOADS
                       for m in ("speedup_vs_csv", "latency_p50_ms")}


def test_compare_flags_more_failures(tmp_path, capsys):
    parent = run_file(tmp_path / "parent.json", baseline())
    change = run_file(tmp_path / "change.json", baseline(), failed=1)
    assert compare(parent, change, BENCHMARK) == 1
    assert "failed_frac" in capsys.readouterr().out


def test_judge_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert judge(steady, steady, "higher", 0.1)[0] == "unchanged"
    assert judge(steady, [v * 1.2 for v in steady], "higher", 0.1)[0] \
        == "improved"
    assert judge(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] \
        == "regressed"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert judge(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert judge(noisy, [10.0] * 5, "lower", 0.1)[0] == "improved"
