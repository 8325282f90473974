"""Workload definitions, statistics and process helpers shared by the
end-to-end benchmark's drivers.

Importing this module puts the checkout's ``src/`` on ``sys.path`` and
imports :mod:`repro`, so a checkout without the package fails here,
before any measurement starts.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
if not (SRC_DIR / "repro").is_dir():
    # Measure the checkout's own package, never an installed copy.
    raise SystemExit(f"no package to benchmark under {SRC_DIR}")
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro import Dialect, ParPaRawParser, ParseOptions  # noqa: E402
from repro.baselines.sequential import SequentialParser  # noqa: E402
from repro.columnar.serialize import write_feather  # noqa: E402
from repro.workloads import (  # noqa: E402
    TAXI_SCHEMA,
    YELP_SCHEMA,
    generate_taxi_like,
    generate_yelp_like,
)

KiB = 1024
MiB = 1024 * 1024

#: RFC-4180 quoting without carriage-return stripping.
RFC4180 = Dialect(strip_carriage_return=False)
#: Pipe-delimited and unquoted: minimises to a one-state automaton (k=8).
PIPE = Dialect(delimiter=b"|", quote=None, strip_carriage_return=False)


def _logs(target_bytes: int, seed: int) -> bytes:
    """Taxi rows re-delimited with pipes (no quoting)."""
    return generate_taxi_like(target_bytes, seed=seed).replace(b",", b"|")


@dataclass(frozen=True)
class Shape:
    """One input shape: its generator and the options it parses with."""

    generate: object
    options: ParseOptions

    def make(self, target_bytes: int, seed: int) -> bytes:
        # Each generator appends whole records until it reaches the
        # target, from a seeded stream, so a smaller target yields a
        # record-aligned prefix of a larger one at the same seed.
        return self.generate(target_bytes, seed=seed)


SHAPES = {
    "yelp": Shape(generate_yelp_like,
                  ParseOptions(dialect=RFC4180, schema=YELP_SCHEMA)),
    "taxi": Shape(generate_taxi_like,
                  ParseOptions(dialect=RFC4180, schema=TAXI_SCHEMA)),
    "logs": Shape(_logs, ParseOptions(dialect=PIPE, schema=TAXI_SCHEMA)),
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"library"`` (closed loop over ParPaRawParser in this process) or
    #: ``"serve"`` (closed loop of RemoteClients against a server process).
    kind: str
    #: Shapes of the inputs; a library workload has exactly one.
    shapes: tuple[str, ...]
    #: Bytes per op (library) or per request (serve).
    op_bytes: int


WORKLOADS = {
    "yelp-8m": Workload("yelp-8m", "library", ("yelp",), 8 * MiB),
    "taxi-8m": Workload("taxi-8m", "library", ("taxi",), 8 * MiB),
    "logs-8m": Workload("logs-8m", "library", ("logs",), 8 * MiB),
    "serve-mixed-1m": Workload("serve-mixed-1m", "serve",
                               ("yelp", "taxi", "logs"), 1 * MiB),
}

#: Sizes under ``--smoke``: every input shrinks to 64 KiB.
SMOKE_BYTES = 64 * KiB
#: Set-up parses one input of this size per shape.
SETUP_BYTES = 64 * KiB
#: Library outputs are checked against the sequential reference parser on
#: a prefix of this size (the reference runs at ~1 s/MiB).
REFERENCE_BYTES = 512 * KiB
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Serve requests and the serve layers of a traced pass use this size.
REQUEST_BYTES = 1 * MiB
#: Closed-loop client threads of the serve workload (one per core of
#: the two-core machine the bounds were set on).
SERVE_CLIENTS = 2
#: Pool workers of the server process and of the in-process service.
SERVE_WORKERS = 2


@dataclass(frozen=True)
class Input:
    """One generated input with everything needed to run and check it."""

    shape: str
    seed: int
    data: bytes
    options: ParseOptions


def make_input(shape: str, size: int, seed: int) -> Input:
    return Input(shape, seed, SHAPES[shape].make(size, seed),
                 SHAPES[shape].options)


def op_inputs(workload: Workload, seed: int, smoke: bool) -> list[Input]:
    """The workload's timed inputs.

    A library workload parses one input generated from ``seed``; the
    serve workload cycles over every shape at two seeds each.
    """
    size = SMOKE_BYTES if smoke else workload.op_bytes
    if workload.kind == "library":
        seeds = (seed,)
    else:
        seeds = (2 * seed, 2 * seed + 1)
    return [make_input(shape, size, s)
            for s in seeds for shape in workload.shapes]


def request_inputs(workload: Workload, seed: int,
                   smoke: bool) -> list[Input]:
    """Inputs for the serve-path layers of a traced pass.

    The serve workload uses its own requests; a library workload sends
    the record-aligned 1 MiB prefix of its input, the size serve
    requests have in this benchmark.
    """
    if workload.kind == "serve":
        return op_inputs(workload, seed, smoke)
    return [make_input(workload.shapes[0],
                       SMOKE_BYTES if smoke else REQUEST_BYTES, seed)]


def setup_inputs(seed: int) -> list[Input]:
    """One small input per shape: what a fresh set-up must parse."""
    return [make_input(shape, SETUP_BYTES, seed) for shape in SHAPES]


def feather_of(data: bytes, options: ParseOptions) -> bytes:
    """One serial op's output: the Feather bytes of a direct parse."""
    return write_feather(ParPaRawParser(options).parse(data).table)


def op_peak_bytes(data: bytes, options: ParseOptions) -> tuple[bytes, int]:
    """One op's Feather bytes and its ``tracemalloc`` peak (untimed)."""
    parser = ParPaRawParser(options)
    tracemalloc.start()
    try:
        blob = write_feather(parser.parse(data).table)
        return blob, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- results -----------------------------------------------------------------

@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Every failed check, op failures included; a run is correct only
    #: when this stays empty.
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Median, quartiles and sample count behind each metric.
    detail: dict[str, dict] = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count one attempted op; a failed one is recorded."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(message)
        return ok

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def metric(self, name: str, value: float, unit: str,
               samples: list[float] | None = None) -> None:
        self.metrics[name] = (float(value), unit)
        self.detail[name] = summary(samples if samples is not None
                                    else [value])


def check_reference(inp: Input, out: Outcome) -> None:
    """The parser must equal the sequential reference on a record-aligned
    prefix of the input."""
    size = min(REFERENCE_BYTES, len(inp.data))
    prefix = SHAPES[inp.shape].make(size, inp.seed)
    if not inp.data.startswith(prefix):
        out.problem(f"{inp.shape}: reference prefix is not a prefix")
        return
    expected = write_feather(SequentialParser(inp.options).parse(prefix))
    out.check(feather_of(prefix, inp.options) == expected,
              f"{inp.shape}: output differs from SequentialParser on the "
              f"{len(prefix)}-byte prefix")


# -- statistics --------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of ``values``."""
    values = [float(v) for v in values]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# -- processes ---------------------------------------------------------------

def child_env() -> dict:
    """Environment for a subprocess that imports :mod:`repro`."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + path if path else "")
    return env


def _parent_of(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except OSError:
        return None
    # The command name may contain spaces or parentheses; fields after
    # the last ')' are fixed: state, ppid, ...
    return int(stat.rsplit(")", 1)[1].split()[1])


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant process."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _parent_of(int(entry))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_gone(pids, timeout: float) -> list[int]:
    """Poll until every pid has ended; returns those still alive."""
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [pid for pid in left if alive(pid)]
    return left


def vm_hwm_bytes(pid: int) -> int:
    """Peak resident set size (``VmHWM``) of ``pid``; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments now present."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
