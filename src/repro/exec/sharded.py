"""The sharded executor: multiprocess parsing with scan-based combination.

The paper's context-resolution machinery is hierarchical by construction:
a chunk's state-transition vector (STV) summarises the chunk independently
of where the DFA enters it, and STVs combine under composition.  The same
holds one level up — a *shard* (a contiguous run of bytes, independently
chunked) is summarised by the composition of its chunks' STVs, and shards
combine under the very same operator.

:class:`ShardedExecutor` exploits this to parallelise the byte-bound
phases across a ``ProcessPoolExecutor``:

1. **contexts** (timer step ``parse``) — every worker chunks its shard,
   computes per-chunk STVs, their shard-local exclusive composition scan,
   and the shard's composite vector;
2. **combine** (timer step ``scan``) — the main process scans the shard
   composites (one tiny composition scan over ``num_shards`` vectors),
   yielding every shard's entering DFA state, and resolves each chunk's
   start state from the shard-local scans;
3. **tags** (timer step ``tag``) — every worker re-simulates its shard
   with the now-known start states, returning only its emissions, final
   state and first invalid position (one byte per shard byte); the main
   process concatenates the emission streams and tags them with the very
   tagger the serial tag stage uses.  Tags are per delimiter segment
   (``O(num_fields)``), so that pass is a few whole-input bitmap sweeps.

Because a shard entering mid-record or mid-quote is resolved exactly like
a chunk entering mid-record or mid-quote, shard boundaries are arbitrary
byte positions — no record alignment, no sequential pre-pass.  Stages
downstream of tagging (validate/partition/convert) run on the merged
result through the ordinary stage pipeline, so the output is bit-for-bit
the serial executor's.

Two hot-path economies on top of the schedule:

* **strided kernels** — workers run the byte-bound sweeps as the
  :class:`~repro.kernels.KernelPlan` of the options' resolved stride
  (the stride the serial stages run); each worker process builds a
  dialect's tables once, on its first shard, and its process-local
  cache serves every later shard and parse;
* **shared-memory input** — when running on a real process pool the raw
  input is published once via :mod:`multiprocessing.shared_memory` and
  workers slice + chunk their own shard, instead of pickling every
  shard's bytes through the pool pipe twice (once per phase).  The
  ``sharded.input.bytes.shipped`` counter records what still travels by
  pickle, so the saving is visible; platforms without shared memory fall
  back to shipping shard arrays.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from itertools import repeat

import numpy as np

from repro.columnar.guard import protect
from repro.core.chunking import chunk_groups_canonical
from repro.core.stages import PipelineContext, RawInput, TagStage, \
    TaggedInput
from repro.dfa.automaton import Dfa
from repro.dfa.minimize import canonicalize
from repro.errors import ParseError
from repro.exec.base import Executor
from repro.kernels import (
    compute_emissions_plan,
    compute_transition_vectors_plan,
    get_plan,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import Tracer, snapshot_spans
from repro.scan.numpy_scan import scan_transition_vectors

__all__ = ["ShardedExecutor"]

#: Stages whose intermediates exist only on the global chunk grid; a
#: request to stop inside this prefix falls back to the serial schedule.
_GRID_STAGES = ("prune", "chunk", "stv", "scan")

#: Reusable no-op context for the unobserved worker path.
_NO_SPAN = nullcontext()


def _pool_context():
    """A thread-safe start method for the worker pool.

    The ingest service drives one shared executor from several
    dispatcher threads, so pool workers may be created while other
    threads are mid-parse.  Plain ``fork`` would snapshot whatever locks
    those threads hold (numpy internals, the kernel-table cache,
    logging) into the child, which then deadlocks on first use.
    ``forkserver`` forks from a clean single-threaded server process
    instead; preloading this module there keeps per-worker startup
    cheap (numpy and repro are imported once, in the server).  Platforms
    without ``forkserver`` fall back to the default start method —
    ``spawn`` there, which is equally thread-safe.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform dependent
        return None
    ctx.set_forkserver_preload(["repro.exec.sharded"])
    return ctx


# -- worker tasks (module-level: picklable under every start method) ---------

# parlint: worker -- runs in pool processes; must stay pure and picklable
def _worker_obs(observe: bool) -> tuple[Tracer | None,
                                        MetricsRegistry | None]:
    """Worker-local observability sinks (``(None, None)`` when disabled)."""
    if not observe:
        return None, None
    return Tracer(), MetricsRegistry()


# parlint: worker -- runs in pool processes; must stay pure and picklable
def _pack_obs(tracer: Tracer | None, metrics: MetricsRegistry | None,
              step: str, start: float, nbytes: int):
    """Finish worker-side accounting and pack it for the trip home."""
    if tracer is None or metrics is None:
        return None
    elapsed = time.perf_counter() - start  # parlint: disable=PPR303 -- obs
    metrics.observe(f"worker.{step}.seconds", elapsed)
    metrics.count("worker.bytes", nbytes)
    return os.getpid(), snapshot_spans(tracer), metrics.to_dict()


# parlint: worker returns-borrowed -- pool-side; raw aliases the shm block
def _open_shard(shard) -> tuple[np.ndarray, object]:
    """Materialise a worker's shard bytes.

    ``shard`` is either the shard's uint8 array (the pickle fallback) or
    a ``(shm_name, total_bytes, lo, hi)`` descriptor pointing into the
    shared-memory block the parent published; in the latter case the
    worker attaches and slices its own range — no input bytes cross the
    pool pipe.  Returns ``(raw, handle)``; pass ``handle`` to
    :func:`_close_shard` once every derived array has been computed
    (nothing returned home may alias the shared buffer).
    """
    if isinstance(shard, np.ndarray):
        return shard, None
    from multiprocessing import shared_memory
    name, total, lo, hi = shard
    handle = shared_memory.SharedMemory(name=name)
    raw = np.ndarray((total,), dtype=np.uint8, buffer=handle.buf)[lo:hi]
    return protect(raw), handle


# parlint: worker -- runs in pool processes; must stay pure and picklable
def _close_shard(handle) -> None:
    """Detach from the parent's shared-memory block (never unlinks)."""
    if handle is not None:
        handle.close()


# parlint: worker -- runs in pool processes; must stay pure and picklable
def _shard_contexts(shard, dfa: Dfa, chunk_size: int, stride: int = 1,
                    shard_index: int = 0, observe: bool = False
                    ) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Worker phase 1: shard-local STVs, their scan, and the composite.

    Returns ``(local_scan, composite, obs)`` where ``local_scan`` is the
    exclusive composition scan of the shard's chunk STVs (row ``c`` maps a
    shard-entry state to the state entering chunk ``c``) and ``composite``
    maps a shard-entry state to the state after the shard's last byte
    (tail padding uses the identity group, so it never perturbs the
    composition).  The sweeps (and hence the returned vectors) live in
    the *canonical* state space — canonicalisation is a pure function of
    the automaton, so every worker and the combining parent agree on it
    without shipping the canonical form around.
    ``obs`` carries the worker's spans/metrics when observing (``None``
    otherwise).
    """
    raw, handle = _open_shard(shard)
    try:
        tracer, metrics = _worker_obs(observe)
        start = time.perf_counter()  # parlint: disable=PPR303 -- obs timing
        with tracer.span("worker:contexts", shard=shard_index,
                         bytes=int(raw.size)) if tracer else _NO_SPAN:
            groups, _, padded_dfa, _ = chunk_groups_canonical(
                raw, dfa, chunk_size)
            plan = get_plan(padded_dfa, stride, chunk_size,
                            metrics or NULL_METRICS)
            vectors = compute_transition_vectors_plan(groups, plan)
            inclusive = scan_transition_vectors(vectors, exclusive=False)
            local_scan = np.empty_like(inclusive)
            local_scan[0] = np.arange(inclusive.shape[1],
                                      dtype=inclusive.dtype)
            local_scan[1:] = inclusive[:-1]
        obs = _pack_obs(tracer, metrics, "contexts", start, int(raw.size))
        return local_scan, inclusive[-1], obs
    finally:
        _close_shard(handle)


# parlint: worker -- runs in pool processes; must stay pure and picklable
def _shard_tags(shard, dfa: Dfa, chunk_size: int,
                start_states: np.ndarray, stride: int = 1,
                shard_index: int = 0, observe: bool = False) -> tuple:
    """Worker phase 2: the shard's emissions.

    Returns ``(emissions, final_state, invalid_position, obs)``: the
    shard's emission codes, the DFA state after its last byte, the first
    shard-relative offset at which the automaton sat in the INV sink
    (``None`` if never), and the worker's spans/metrics when observing.
    The sweep runs in canonical state space (and ``start_states``
    arrive canonical, from phase 1's canonical vectors); the returned
    ``final_state`` is mapped back to the source automaton, which is
    what validation speaks.
    """
    raw, handle = _open_shard(shard)
    try:
        tracer, metrics = _worker_obs(observe)
        start = time.perf_counter()  # parlint: disable=PPR303 -- obs timing
        with tracer.span("worker:tags", shard=shard_index,
                         bytes=int(raw.size)) if tracer else _NO_SPAN:
            groups, chunking, padded_dfa, canon = chunk_groups_canonical(
                raw, dfa, chunk_size)
            plan = get_plan(padded_dfa, stride, chunk_size,
                            metrics or NULL_METRICS)
            emissions, final_state, invalid_position = \
                compute_emissions_plan(groups, start_states, plan,
                                       chunking)
            final_state = int(canon.state_rep[final_state])
        obs = _pack_obs(tracer, metrics, "tags", start, int(raw.size))
        return emissions, final_state, invalid_position, obs
    finally:
        _close_shard(handle)


class ShardedExecutor(Executor):
    """Parse with per-shard workers in a process pool.

    Parameters
    ----------
    workers:
        Worker processes (default: ``os.cpu_count()``).  ``workers=1``
        runs the sharded schedule without spawning a pool.
    shard_bytes:
        Force a shard size in bytes (default: the input is split evenly
        across ``workers``).  Any positive value is legal — shards
        smaller than a chunk, shards that split records, quotes or UTF-8
        sequences are all resolved by the combination scans.
    use_processes:
        ``False`` executes the worker tasks inline in the calling
        process (the full sharded data path, minus the pool) — useful
        for tests and debugging.
    shared_input:
        Publish the raw input to pool workers through
        :mod:`multiprocessing.shared_memory` (the default) instead of
        pickling every shard's bytes; ``False`` forces the pickle path
        (the automatic fallback when shared memory is unavailable).
    pipeline:
        Stage pipeline override (defaults to the canonical one).

    The worker pool is created lazily on first use and reused across
    parses; call :meth:`close` (or use the executor as a context
    manager) to release it.
    """

    def __init__(self, workers: int | None = None,
                 shard_bytes: int | None = None,
                 use_processes: bool = True,
                 shared_input: bool = True,
                 pipeline=None):
        super().__init__(pipeline)
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ParseError("workers must be >= 1")
        if shard_bytes is not None and shard_bytes <= 0:
            raise ParseError("shard_bytes must be positive")
        self.workers = int(workers)
        self.shard_bytes = shard_bytes
        self.use_processes = bool(use_processes)
        self.shared_input = bool(shared_input)
        self._pool: ProcessPoolExecutor | None = None
        # Guards lazy pool creation/teardown: the ingest service drives
        # one shared executor from several dispatcher threads, and an
        # unlocked check-then-create would build (and leak) a second
        # pool under that race.
        self._pool_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        super().close()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- execution ---------------------------------------------------------

    def execute(self, ctx: PipelineContext, payload: RawInput, *,
                until: str | None = None):
        self._ensure_open()
        if until in _GRID_STAGES:
            # Chunk-grid intermediates requested: they only exist on the
            # serial schedule's global grid.
            return self.pipeline.run(ctx, payload, until=until)

        payload = self.pipeline.run_stage(self.pipeline.stage("prune"),
                                          ctx, payload)
        tagged = self._tag_sharded(ctx, payload)
        if until == "tag":
            return tagged
        return self.pipeline.run(ctx, tagged, start="validate", until=until)

    # -- sharded phases 1+2 ------------------------------------------------

    def _tag_sharded(self, ctx: PipelineContext,
                     payload: RawInput) -> TaggedInput:
        options = ctx.options
        raw = payload.raw
        tracer, metrics = ctx.tracer, ctx.metrics
        observe = tracer.enabled or metrics.enabled
        # The canonical automaton the workers sweep with, whose start
        # state the combine scan indexes.
        run_dfa = canonicalize(ctx.dfa).dfa
        stride = options.resolved_stride()
        bounds = self._shard_bounds(int(raw.size), options.chunk_size)
        mapper = self._mapper(len(bounds))
        pooled = self.use_processes and self.workers > 1 and len(bounds) > 1
        shm, shards = self._ship_input(raw, bounds, pooled)
        # Bytes each phase pickles through the pool pipe: the whole
        # shard under the fallback, a ~100 B descriptor under shm, and
        # nothing at all when shards stay in-process.
        shipped_per_phase = sum(hi - lo for lo, hi in bounds) \
            if pooled and shm is None else 0
        if metrics.enabled:
            metrics.gauge("shards", len(bounds))
            metrics.gauge("workers", self.workers)
            # Workers run the sweeps in their own processes, so record the
            # stride they are handed here.
            metrics.gauge("stage.stv.stride", stride)
            metrics.gauge("stage.tag.stride", stride)
            metrics.gauge("kernels.table_budget",
                          options.kernel_table_budget)
            metrics.gauge("sharded.input.shared_memory",
                          1.0 if shm is not None else 0.0)

        try:
            phase_start = time.perf_counter()
            with tracer.span("sharded:contexts", shards=len(bounds)):
                with ctx.timer.step("parse"):
                    contexts = list(mapper(_shard_contexts, shards,
                                           repeat(ctx.dfa),
                                           repeat(options.chunk_size),
                                           repeat(stride),
                                           range(len(bounds)),
                                           repeat(observe)))
            if metrics.enabled:
                # Mirror the serial pipeline's stage.*.seconds histograms
                # so dashboards and the planner's calibration see the
                # same names regardless of executor.
                metrics.observe("stage.stv.seconds",
                                time.perf_counter() - phase_start)
            for _, _, obs in contexts:
                self._ingest_obs(tracer, metrics, obs)
            if metrics.enabled:
                metrics.count("sharded.input.bytes.shipped",
                              shipped_per_phase)

            phase_start = time.perf_counter()
            with tracer.span("sharded:combine", shards=len(bounds)):
                with ctx.timer.step("scan"):
                    # One composition scan over the shard composites gives
                    # every shard its entering state; indexing each shard's
                    # local scan with it gives every chunk its start state
                    # (§3.1, twice).
                    composites = np.stack([composite
                                           for _, composite, _ in contexts])
                    entering = scan_transition_vectors(composites,
                                                       exclusive=True)
                    # Composites live in the workers' canonical state
                    # space; index with that space's start state.
                    entering_states = entering[:, run_dfa.start_state]
                    start_states = [
                        local_scan[:, int(state)].astype(np.uint8)
                        for (local_scan, _, _), state
                        in zip(contexts, entering_states)
                    ]

            if metrics.enabled:
                metrics.observe("stage.scan.seconds",
                                time.perf_counter() - phase_start)
            phase_start = time.perf_counter()
            with tracer.span("sharded:tags", shards=len(bounds)):
                with ctx.timer.step("tag"):
                    shard_tags = list(mapper(
                        _shard_tags, shards,
                        repeat(ctx.dfa),
                        repeat(options.chunk_size),
                        start_states,
                        repeat(stride),
                        range(len(bounds)),
                        repeat(observe)))
                    emissions, final_state, invalid_position = \
                        self._merge_emissions(bounds, shard_tags)
                    tags = TagStage.tag(options, emissions, final_state)
            if metrics.enabled:
                metrics.observe("stage.tag.seconds",
                                time.perf_counter() - phase_start)
            for entry in shard_tags:
                self._ingest_obs(tracer, metrics, entry[3])
            if metrics.enabled:
                metrics.count("sharded.input.bytes.shipped",
                              shipped_per_phase)
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()

        return TaggedInput(raw=raw, input_bytes=payload.input_bytes,
                           tags=tags, invalid_position=invalid_position)

    def _ship_input(self, raw: np.ndarray, bounds, pooled: bool):
        """How shard bytes reach the workers: ``(shm, shard payloads)``.

        On a real pool (and unless ``shared_input=False``) the input is
        copied once into a POSIX shared-memory block and workers get
        ``(name, total, lo, hi)`` descriptors; they attach and slice
        their own shard, so no input bytes are pickled.  Inline
        execution, single-shard runs and platforms without
        ``multiprocessing.shared_memory`` fall back to shipping the
        shard arrays themselves.
        """
        if pooled and self.shared_input and raw.size:
            try:
                from multiprocessing import shared_memory
                shm = shared_memory.SharedMemory(create=True,
                                                 size=int(raw.size))
                np.ndarray(raw.shape, dtype=np.uint8, buffer=shm.buf)[:] \
                    = raw  # parlint: disable=PPR601 -- filling a segment this frame just created and owns
                descriptors = [(shm.name, int(raw.size), lo, hi)
                               for lo, hi in bounds]
                return shm, descriptors
            except (ImportError, OSError):
                pass
        return None, [raw[lo:hi] for lo, hi in bounds]

    @staticmethod
    def _ingest_obs(tracer, metrics, obs) -> None:
        """Fold one worker's packed spans/metrics into the parent sinks."""
        if obs is None:
            return
        pid, spans, metric_snapshot = obs
        tracer.ingest(spans, pid)
        metrics.merge_dict(metric_snapshot)

    @staticmethod
    def _merge_emissions(bounds, shard_tags
                         ) -> tuple[np.ndarray, int, int | None]:
        """Concatenate per-shard emissions into the whole input's.

        Returns ``(emissions, final_state, invalid_position)``: the final
        state is the last shard's, the invalid position the first shard's
        that has one, shifted to a global byte offset.
        """
        invalid_position = None
        for (lo, _hi), (_, _, invalid, _) in zip(bounds, shard_tags):
            if invalid is not None:
                invalid_position = lo + invalid
                break
        emissions = np.concatenate([t[0] for t in shard_tags])
        return emissions, int(shard_tags[-1][1]), invalid_position

    # -- scheduling --------------------------------------------------------

    def _shard_bounds(self, n: int,
                      chunk_size: int) -> list[tuple[int, int]]:
        """Contiguous byte ranges covering the input (≥ 1, even when empty)."""
        if n == 0:
            return [(0, 0)]
        if self.shard_bytes is not None:
            size = self.shard_bytes
        else:
            # Even split across workers, but never shards smaller than a
            # chunk — sub-chunk shards only make sense when forced.
            size = max(chunk_size, -(-n // self.workers))
        num_shards = -(-n // size)
        return [(i * size, min(n, (i + 1) * size))
                for i in range(num_shards)]

    def _mapper(self, num_shards: int):
        """An ordered ``map`` over shards: the pool's, or the builtin."""
        if not self.use_processes or self.workers == 1 or num_shards <= 1:
            return lambda fn, *iters: list(map(fn, *iters))
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_pool_context())
            return self._pool.map
