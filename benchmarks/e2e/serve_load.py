"""The serve workload, tracing off: ``python -m repro serve`` in a
subprocess and a closed loop of ``RemoteClient`` threads against it."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from common import (
    MiB,
    REPO_ROOT,
    SERVE_CLIENTS,
    SERVE_WORKERS,
    SETUP_REPEATS,
    Outcome,
    Workload,
    child_env,
    feather_of,
    median,
    op_inputs,
    op_peak_bytes,
    percentile,
    process_tree,
    setup_inputs,
    shm_segments,
    vm_hwm_bytes,
    wait_gone,
)
from repro.baselines.stdlib_csv import stdlib_csv_rows
from repro.columnar.serialize import write_feather
from repro.errors import ReproError
from repro.serve import RemoteClient

#: Bounds on waiting for the server to come up and to drain.
START_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0
#: Pool workers and helpers get this long to exit after the server does.
EXIT_TIMEOUT = 15.0
#: csv.reader runs this long over the requests just before and just after
#: the load, to gauge the machine's speed while the load ran.
CSV_REFERENCE_SECONDS = 1.0


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int


def start_server(setups, expected: list[bytes], out: Outcome
                 ) -> tuple[Server, float]:
    """Spawn a server and send it one set-up input per shape.

    Returns the server and the seconds from spawn until the last of
    those responses arrived; the responses are checked after the clock
    stops.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(SERVE_WORKERS)],
        stdout=subprocess.PIPE, env=child_env(), cwd=REPO_ROOT, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT)
        match = re.search(r"listening on (\S+):(\d+)",
                          proc.stdout.readline() if ready else "")
        if match is None:
            raise RuntimeError("server did not report its address")
        server = Server(proc, match.group(1), int(match.group(2)))
        client = RemoteClient(server.host, server.port)
        tables = [client.parse(i.data, options=i.options) for i in setups]
    except BaseException:
        stop_server(Server(proc, "", 0), out)
        raise
    elapsed = time.perf_counter() - start
    for table, blob in zip(tables, expected):
        out.check(write_feather(table) == blob,
                  "set-up response differs from a direct parse")
    return server, elapsed


def stop_server(server: Server, out: Outcome) -> None:
    """SIGTERM the server, let it drain, and wait for its whole process
    tree (pool workers, forkserver, resource tracker) to end."""
    tree = process_tree(server.proc.pid)
    server.proc.send_signal(signal.SIGTERM)
    try:
        server.proc.communicate(timeout=DRAIN_TIMEOUT)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.communicate()
        out.problem("server did not drain in time")
    if server.proc.returncode != 0:
        out.problem(f"server exited {server.proc.returncode}")
    left = wait_gone(tree, EXIT_TIMEOUT)
    if left:
        out.problem(f"processes outlived the server: {left}")
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        wait_gone(left, EXIT_TIMEOUT)


def _stdlib_csv(inputs) -> tuple[int, float]:
    """Bytes ``csv.reader`` parsed, cycling over the requests, and the
    seconds it took (at least ``CSV_REFERENCE_SECONDS``)."""
    done, start = 0, time.perf_counter()
    while time.perf_counter() - start < CSV_REFERENCE_SECONDS:
        for inp in inputs:
            stdlib_csv_rows(inp.data, inp.options.dialect)
            done += len(inp.data)
    return done, time.perf_counter() - start


def _client_loop(server: Server, inputs, expected, offset: int,
                 deadline: float, sink: dict) -> None:
    client = RemoteClient(server.host, server.port)
    k = offset
    while time.perf_counter() < deadline:
        inp, blob = inputs[k % len(inputs)], expected[k % len(inputs)]
        k += 1
        start = time.perf_counter()
        try:
            table = client.parse(inp.data, options=inp.options)
        except (ReproError, OSError) as error:
            sink["errors"].append(repr(error))
            continue
        end = time.perf_counter()
        if write_feather(table) == blob:
            sink["latencies"].append(end - start)
            sink["bytes"] += len(inp.data)
        else:
            sink["mismatches"] += 1
        sink["last_end"] = end


def run(workload: Workload, seed: int, seconds: float,
        smoke: bool) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    inputs = op_inputs(workload, seed, smoke)
    setups = setup_inputs(seed)
    out.environment["generate_s"] = time.perf_counter() - start
    out.environment["input_bytes"] = [len(i.data) for i in inputs]
    out.environment["input_seeds"] = [i.seed for i in inputs]

    start = time.perf_counter()
    expected, peaks = [], []
    for inp in inputs:
        blob, peak = op_peak_bytes(inp.data, inp.options)
        expected.append(blob)
        peaks.append(peak / len(inp.data))
    setup_expected = [feather_of(i.data, i.options) for i in setups]
    out.environment["expected_s"] = time.perf_counter() - start

    shm_before = shm_segments()
    setup_times = []
    for attempt in range(SETUP_REPEATS):
        server, elapsed = start_server(setups, setup_expected, out)
        setup_times.append(elapsed)
        if attempt < SETUP_REPEATS - 1:
            stop_server(server, out)
    try:
        warm = RemoteClient(server.host, server.port)
        for inp, blob in zip(inputs, expected):
            table = warm.parse(inp.data, options=inp.options)
            out.check(write_feather(table) == blob,
                      "warm-up response differs from a direct parse")

        csv_before = _stdlib_csv(inputs)
        loop_start = time.perf_counter()
        deadline = loop_start + seconds
        sinks = [{"latencies": [], "errors": [], "mismatches": 0,
                  "bytes": 0, "last_end": loop_start}
                 for _ in range(SERVE_CLIENTS)]
        threads = [threading.Thread(
            target=_client_loop, daemon=True, name=f"client-{i}",
            args=(server, inputs, expected,
                  i * len(inputs) // SERVE_CLIENTS, deadline, sinks[i]))
            for i in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + DRAIN_TIMEOUT)
            if thread.is_alive():
                out.problem(f"{thread.name} did not finish")
        elapsed = max(s["last_end"] for s in sinks) - loop_start
        out.environment["loop_s"] = elapsed
        csv_after = _stdlib_csv(inputs)
        rss = sum(vm_hwm_bytes(pid) for pid in process_tree(server.proc.pid))
    finally:
        stop_server(server, out)
    csv_rate = (csv_before[0] + csv_after[0]) / MiB \
        / (csv_before[1] + csv_after[1])
    out.environment["ref.stdlib_csv_mb_s"] = csv_rate
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        out.problem(f"shared-memory segments left behind: {leaked}")

    latencies = [v * 1e3 for s in sinks for v in s["latencies"]]
    out.attempted += len(latencies)
    for sink in sinks:
        for error in sink["errors"]:
            out.check(False, f"request failed: {error}")
        for _ in range(sink["mismatches"]):
            out.check(False, "response differs from a direct parse")
    if not latencies:
        raise RuntimeError("no request succeeded; nothing to report")

    verified = sum(s["bytes"] for s in sinks)
    throughput = verified / MiB / elapsed
    out.metric("throughput_mb_s", throughput, "MiB/s")
    out.metric("speedup_vs_csv", throughput / csv_rate, "x")
    out.metric("latency_p50_ms", median(latencies), "ms", latencies)
    out.detail["latency_p50_ms"]["p95"] = percentile(latencies, 95)
    out.metric("peak_mem_b_per_b", max(peaks), "B/B", peaks)
    out.metric("peak_rss_mb", rss / MiB, "MiB")
    out.metric("setup_s", median(setup_times), "s", setup_times)
    return out
