"""The traced pass: per-layer metrics for any workload.

Every number comes from outside the program: the pass calls each
layer's public functions and records its own spans around the calls
(:mod:`spans`).  Layers and what is timed:

* ``repro.core.stages`` (with ``repro.kernels`` and ``repro.scan``
  inside stv/scan/tag) — a real ``ParPaRawParser.parse`` whose executor
  drives the default pipeline one stage at a time,
  ``run(ctx, payload, start=s, until=s)``, inside a span per stage;
* ``repro.exec`` — the parse span minus its stage spans (serial), and a
  two-worker sharded parse minus a serial parse of the same request;
* ``repro.columnar.serialize`` — ``write_feather``/``read_feather``;
* ``repro.plan`` — ``Planner.estimate_cost`` and ``Planner.observe``;
* ``repro.serve`` — an in-process ``IngestService`` behind an
  ``IngestServer``, driven by ``Client``/``RemoteClient``;
* ``repro.obs`` — a parse with a live ``Tracer`` and ``MetricsRegistry``
  against the no-op sinks.

The first part of the run (phase A) is sequential, so layer times do
not contend with each other.  The rest (phase B) has one thread per
serve client submitting tickets to the service, which is what gives
admission and queueing their real shape.
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
from contextlib import contextmanager

from common import (
    BENCH_DIR,
    MiB,
    SERVE_CLIENTS,
    SERVE_WORKERS,
    Outcome,
    Workload,
    check_reference,
    feather_of,
    median,
    op_inputs,
    process_tree,
    request_inputs,
)
from spans import SpanRecorder
from repro import ParPaRawParser, SerialExecutor
from repro.baselines.stdlib_csv import stdlib_csv_rows
from repro.columnar.serialize import read_feather, write_feather
from repro.core.stages import default_pipeline
from repro.dfa.minimize import canonicalize
from repro.errors import AdmissionError, ReproError
from repro.kernels import cache_info, resolve_stride
from repro.obs import MetricsRegistry, Tracer
from repro.plan import Planner
from repro.serve import Client, IngestServer, IngestService, \
    RemoteClient, ServiceConfig

STAGES = default_pipeline().stage_names
#: Share of ``--seconds`` given to the sequential phase A.
PHASE_A_SHARE = 0.7
#: Chrome traces of traced runs land here.
TRACE_DIR = BENCH_DIR / "out"


class StageByStageExecutor(SerialExecutor):
    """The serial schedule, entered once per stage, each stage inside
    ``around(stage_name)``."""

    def __init__(self, around):
        super().__init__()
        self._around = around

    def execute(self, ctx, payload, *, until=None):
        self._ensure_open()
        for name in self.pipeline.stage_names:
            with self._around(name):
                payload = self.pipeline.run(ctx, payload, start=name,
                                            until=name)
            if name == until:
                break
        return payload


def stage_memory(data: bytes, options) -> dict[str, tuple[int, int]]:
    """Per stage: the ``tracemalloc`` peak during it and the bytes still
    live after it."""
    sink: dict[str, tuple[int, int]] = {}

    @contextmanager
    def probe(name):
        tracemalloc.reset_peak()
        yield
        current, peak = tracemalloc.get_traced_memory()
        sink[name] = (peak, current)

    parser = ParPaRawParser(options, executor=StageByStageExecutor(probe))
    tracemalloc.start()
    try:
        parser.parse(data)
    finally:
        tracemalloc.stop()
    return sink


def kernel_stride(options) -> int:
    """The sweep stride the chunk stage's automaton resolves to."""
    padded = canonicalize(options.resolved_dfa()).dfa.with_padding_group()
    return resolve_stride(options.kernel_stride, padded,
                          options.kernel_table_budget)


def stop_helper_processes() -> None:
    """End the forkserver and resource tracker this process started.

    ``multiprocessing`` starts both on first use of a pool or of shared
    memory and otherwise leaves them running until the interpreter
    exits; a benchmark run must end every process it starts.
    """
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver,
                   resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


class Layers:
    """Phase A and phase B of one traced run, and the metrics they give."""

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 out: Outcome):
        self.out = out
        self.rec = SpanRecorder()
        self.ops = op_inputs(workload, seed, smoke)
        self.requests = request_inputs(workload, seed, smoke)
        self.traced = StageByStageExecutor(
            lambda name: self.rec.span(f"stage.{name}"))
        self.planner = Planner()
        self.references: list[bytes] = []
        self.rejected = 0
        self.cache_misses = 0
        # Phase-A samples that are not span durations; the ratios are
        # against the untraced op of the same round.
        self.records: list[int] = []
        self.rejected_frac: list[float] = []
        self.strides: list[int] = []
        self.csv_bytes = 0
        self.trace_ratio: list[float] = []
        self.obs_ratio: list[float] = []
        self.wire_ms: list[float] = []

    # -- phase A -------------------------------------------------------------

    def op_round(self, inp, reference: bytes) -> None:
        """One op input through every core layer."""
        out, rec = self.out, self.rec
        parser = ParPaRawParser(inp.options)
        start = time.perf_counter()
        result = parser.parse(inp.data)
        plain_parse = time.perf_counter() - start
        blob = write_feather(result.table)
        plain_op = time.perf_counter() - start
        out.check(blob == reference, "untraced op differs from the first")

        traced = ParPaRawParser(inp.options, executor=self.traced)
        with rec.span("op") as op:
            with rec.span("parse"):
                result = traced.parse(inp.data)
            with rec.span("columnar.write_feather"):
                blob = write_feather(result.table)
        out.check(blob == reference, "traced op differs from the untraced")
        self.trace_ratio.append(op.seconds / plain_op)
        with rec.span("columnar.read_feather"):
            read_feather(blob)
        with rec.span("plan.estimate_cost"):
            self.planner.estimate_cost(len(inp.data), inp.options)
        with rec.span("plan.observe"):
            self.planner.observe(result)
        self.records.append(result.num_records)
        self.rejected_frac.append(result.rejected_records
                                  / max(1, result.num_records))
        self.strides.append(kernel_stride(inp.options))

        enabled = ParPaRawParser(inp.options, tracer=Tracer(),
                                 metrics=MetricsRegistry())
        start = time.perf_counter()
        enabled.parse(inp.data)
        self.obs_ratio.append((time.perf_counter() - start) / plain_parse)

        with rec.span("ref.stdlib_csv"):
            stdlib_csv_rows(inp.data, inp.options.dialect)
        self.csv_bytes += len(inp.data)

    def request_round(self, inp, expected: bytes, service,
                      remote) -> None:
        """One request through both executors and over the wire."""
        out, rec = self.out, self.rec
        sharded = ParPaRawParser(inp.options, executor=service.executor)
        with rec.span("exec.sharded_parse"):
            table = sharded.parse(inp.data).table
        out.check(write_feather(table) == expected,
                  "sharded parse differs from the serial parse")
        with rec.span("exec.serial_parse"):
            ParPaRawParser(inp.options).parse(inp.data)
        try:
            with rec.span("serve.remote_parse") as span:
                table = remote.parse(inp.data, options=inp.options)
        except AdmissionError as error:
            self.rejected += 1
            out.check(False, f"request rejected: {error}")
            return
        out.check(write_feather(table) == expected,
                  "remote service result differs")
        # Requests run one at a time here, so the newest batch in the
        # service's history is this request's own parse.
        parse_s = service.status()["batches"][-1]["seconds"]
        self.wire_ms.append((span.seconds - parse_s) * 1e3)

    # -- phase B -------------------------------------------------------------

    def submit_loop(self, client, offset: int, deadline: float,
                    expected: list[bytes], sink: dict) -> None:
        """One client thread: submit, wait, repeat; spans per request."""
        rec, k = self.rec, offset
        while time.perf_counter() < deadline:
            inp = self.requests[k % len(self.requests)]
            blob = expected[k % len(self.requests)]
            k += 1
            with rec.span("serve.request"):
                try:
                    with rec.span("serve.admission"):
                        ticket = client.submit(inp.data,
                                               options=inp.options)
                except AdmissionError:
                    sink["rejected"] += 1
                    continue
                submitted = time.perf_counter()
                submitted_mono = time.monotonic()
                try:
                    table = ticket.result().table
                except ReproError as error:
                    sink["errors"].append(repr(error))
                    continue
                done = time.perf_counter()
                # Ticket.started_at is on the monotonic clock.
                started = max(submitted, submitted
                              + ticket.started_at - submitted_mono)
                rec.add("serve.queue_wait", submitted, started)
                rec.add("serve.run", started, done)
            sink["ok" if write_feather(table) == blob else "mismatches"] \
                += 1

    # -- the run -------------------------------------------------------------

    def run(self, seconds: float, trace_name: str) -> None:
        out = self.out
        references = self.references = [feather_of(i.data, i.options)
                                        for i in self.ops]
        sinks: list[dict] = []
        expected = [feather_of(i.data, i.options) for i in self.requests]
        service = IngestService(ServiceConfig(workers=SERVE_WORKERS))
        server = IngestServer(service, own_service=True).start()
        try:
            remote = RemoteClient(server.host, server.port)
            for inp, blob in zip(self.requests, expected):   # warm-up
                out.check(write_feather(remote.parse(
                    inp.data, options=inp.options)) == blob,
                    "warm-up response differs")
            misses = cache_info()["misses"]
            start = time.perf_counter()
            phase_a_end = start + seconds * PHASE_A_SHARE
            k = 0
            while True:
                self.op_round(self.ops[k % len(self.ops)],
                              references[k % len(self.ops)])
                j = k % len(self.requests)
                self.request_round(self.requests[j], expected[j], service,
                                   remote)
                k += 1
                if time.perf_counter() >= phase_a_end:
                    break
            sinks = [{"ok": 0, "mismatches": 0, "rejected": 0,
                      "errors": []} for _ in range(SERVE_CLIENTS)]
            deadline = max(time.perf_counter(), start + seconds)
            threads = [threading.Thread(
                target=self.submit_loop, daemon=True, name=f"client-{i}",
                args=(Client(service), i, deadline, expected, sinks[i]))
                for i in range(SERVE_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(seconds + 60)
                if thread.is_alive():
                    out.problem(f"{thread.name} did not finish")
            out.environment["loop_s"] = time.perf_counter() - start
            self.cache_misses = cache_info()["misses"] - misses
        finally:
            server.close()
            stop_helper_processes()
        for sink in sinks:
            out.attempted += sink["ok"]
            self.rejected += sink["rejected"]
            for error in sink["errors"]:
                out.check(False, f"ticket failed: {error}")
            for _ in range(sink["mismatches"]):
                out.check(False, "ticket result differs")
            for _ in range(sink["rejected"]):
                out.check(False, "ticket rejected")
        left = [pid for pid in process_tree(os.getpid())
                if pid != os.getpid()]
        if left:
            out.problem(f"child processes still running: {left}")
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{trace_name}.json"
        for problem in self.rec.write(path):
            out.problem(f"chrome trace: {problem}")
        out.environment["trace_file"] = str(path.relative_to(BENCH_DIR))
        out.environment["spans"] = len(self.rec.spans)

    # -- metrics -------------------------------------------------------------

    def report(self) -> None:
        out, rec = self.out, self.rec
        kids = rec.children()

        def ms(name):
            return [s.seconds * 1e3 for s in rec.named(name)]

        stage_ms = {name: [] for name in STAGES}
        exec_overhead, unattributed = [], []
        for op in rec.named("op"):
            parts = {s.name: s for s in kids.get(op.id, [])}
            parse, write = parts["parse"], parts["columnar.write_feather"]
            stages = kids.get(parse.id, [])
            for stage in stages:
                stage_ms[stage.name[len("stage."):]].append(
                    stage.seconds * 1e3)
            exec_overhead.append(
                (parse.seconds - sum(s.seconds for s in stages)) * 1e3)
            unattributed.append((op.seconds - parse.seconds
                                 - write.seconds) * 1e3)

        for name in STAGES:
            out.metric(f"stage.{name}.ms", median(stage_ms[name]), "ms",
                       stage_ms[name])
        for inp in self.ops:
            memory = stage_memory(inp.data, inp.options)
            for name in STAGES:
                peak, live = memory[name]
                for key, value in (("peak", peak), ("out", live)):
                    metric = f"stage.{name}.{key}_b_per_b"
                    # The largest over the workload's inputs.
                    previous = out.metrics.get(metric, (0.0, ""))[0]
                    out.metric(metric, max(previous,
                                           value / len(inp.data)), "B/B")

        out.metric("exec.overhead_ms", median(exec_overhead), "ms",
                   exec_overhead)
        sharded = [a - b for a, b in zip(ms("exec.sharded_parse"),
                                         ms("exec.serial_parse"))]
        out.metric("exec.sharded.overhead_ms", median(sharded), "ms",
                   sharded)

        for name in ("columnar.write_feather", "columnar.read_feather",
                     "plan.estimate_cost", "plan.observe",
                     "serve.admission", "serve.queue_wait", "serve.run"):
            samples = ms(name)
            out.metric(f"{name}.ms", median(samples), "ms", samples)
        sizes = [len(blob) / len(i.data)
                 for i, blob in zip(self.ops, self.references)]
        out.metric("columnar.feather_b_per_b", median(sizes), "B/B", sizes)
        out.metric("serve.wire.ms", median(self.wire_ms), "ms", self.wire_ms)
        out.metric("serve.rejected", self.rejected, "count")

        out.metric("kernels.stride", median(self.strides), "symbols",
                   self.strides)
        out.metric("kernels.cache.misses", self.cache_misses, "count")
        out.metric("core.records", median(self.records), "count",
                   self.records)
        out.metric("core.rejected_frac", median(self.rejected_frac),
                   "ratio", self.rejected_frac)
        out.metric("obs.enabled_overhead_frac", median(self.obs_ratio) - 1,
                   "ratio", [r - 1 for r in self.obs_ratio])
        out.metric("unattributed.ms", median(unattributed), "ms",
                   unattributed)
        out.metric("trace.overhead_frac", median(self.trace_ratio) - 1,
                   "ratio", [r - 1 for r in self.trace_ratio])
        csv_s = sum(s.seconds for s in rec.named("ref.stdlib_csv"))
        rate = self.csv_bytes / MiB / csv_s
        out.metric("ref.stdlib_csv_mb_s", rate, "MiB/s")
        out.environment["ref.stdlib_csv_mb_s"] = rate


def run(workload: Workload, seed: int, seconds: float,
        smoke: bool) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    layers = Layers(workload, seed, smoke, out)
    out.environment["generate_s"] = time.perf_counter() - start
    out.environment["input_bytes"] = [len(i.data) for i in layers.ops]
    out.environment["input_seeds"] = [i.seed for i in layers.ops]
    out.environment["request_bytes"] = [len(i.data)
                                        for i in layers.requests]
    if workload.kind == "library":
        start = time.perf_counter()
        check_reference(layers.ops[0], out)
        out.environment["reference_check_s"] = time.perf_counter() - start
    layers.run(seconds, f"trace-{workload.name}-seed{seed}")
    layers.report()
    return out
