"""Library workloads, tracing off: one caller in a closed loop, each op
``ParPaRawParser.parse`` (serial executor) then ``write_feather``."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    MiB,
    REPO_ROOT,
    SETUP_REPEATS,
    Outcome,
    Workload,
    check_reference,
    child_env,
    feather_of,
    median,
    op_inputs,
    op_peak_bytes,
    percentile,
    setup_inputs,
    vm_hwm_bytes,
)
from repro import ParPaRawParser
from repro.baselines.stdlib_csv import stdlib_csv_rows
from repro.columnar.serialize import write_feather

#: A set-up child that has not answered by then is killed.
SETUP_TIMEOUT = 60.0


def fresh_setup_seconds(seed: int, out: Outcome) -> list[float]:
    """Wall seconds of fresh-process set-ups: from spawn until the child
    reports its first result for every shape."""
    inputs = setup_inputs(seed)
    expected = [hashlib.sha256(feather_of(i.data, i.options)).hexdigest()
                for i in inputs]
    header = {"shapes": [i.shape for i in inputs],
              "sizes": [len(i.data) for i in inputs]}
    payload = json.dumps(header).encode() + b"\n" \
        + b"".join(i.data for i in inputs)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), cwd=REPO_ROOT)
        try:
            reply, _ = proc.communicate(payload, timeout=SETUP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up child did not answer in time")
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        digests = json.loads(reply.decode().splitlines()[-1])["digests"]
        out.check(digests == expected,
                  "set-up child output differs from a direct parse")
    return times


def run(workload: Workload, seed: int, seconds: float,
        smoke: bool) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    [inp] = op_inputs(workload, seed, smoke)
    out.environment["generate_s"] = time.perf_counter() - start
    out.environment["input_bytes"] = [len(inp.data)]
    out.environment["input_seeds"] = [inp.seed]

    setup = fresh_setup_seconds(seed, out)
    start = time.perf_counter()
    check_reference(inp, out)
    out.environment["reference_check_s"] = time.perf_counter() - start

    reference, peak = op_peak_bytes(inp.data, inp.options)
    parser = ParPaRawParser(inp.options)
    out.check(write_feather(parser.parse(inp.data).table) == reference,
              "warm-up op differs from the memory-pass op")

    # Each op is followed by csv.reader over the same bytes, so every op
    # has a stdlib reference timed on the machine as it was at that
    # moment; the ratio cancels the machine's drift in speed.
    walls, speedups, csv_seconds = [], [], []
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    while True:
        op_start = time.perf_counter()
        try:
            blob = write_feather(parser.parse(inp.data).table)
        except Exception as error:   # keep measuring; the run reports it
            out.check(False, f"op raised {error!r}")
            blob = None
        wall = time.perf_counter() - op_start
        csv_start = time.perf_counter()
        stdlib_csv_rows(inp.data, inp.options.dialect)
        csv_seconds.append(time.perf_counter() - csv_start)
        if blob is not None and out.check(
                blob == reference, "op output differs from the first op"):
            walls.append(wall)
            speedups.append(csv_seconds[-1] / wall)
        if time.perf_counter() >= deadline:
            break
    out.environment["loop_s"] = time.perf_counter() - loop_start
    if not walls:
        raise RuntimeError("no op succeeded; nothing to report")

    mib = len(inp.data) / MiB
    out.environment["ref.stdlib_csv_mb_s"] = \
        mib * len(csv_seconds) / sum(csv_seconds)
    out.metric("throughput_mb_s", mib / median(walls), "MiB/s",
               [mib / w for w in walls])
    out.metric("speedup_vs_csv", median(speedups), "x", speedups)
    latencies = [w * 1e3 for w in walls]
    out.metric("latency_p50_ms", median(latencies), "ms", latencies)
    out.detail["latency_p50_ms"]["p95"] = percentile(latencies, 95)
    out.metric("peak_mem_b_per_b", peak / len(inp.data), "B/B")
    out.metric("peak_rss_mb", vm_hwm_bytes(os.getpid()) / MiB, "MiB")
    out.metric("setup_s", median(setup), "s", setup)
    return out
