"""The self-tuning planner: probe, enumerate, price, adapt.

Static half: :meth:`Planner.plan` probes the input
(:func:`~repro.plan.stats.probe_input`), enumerates candidates over the
knob space — ``chunk_size`` × ``kernel_stride`` (plus a ``workers``
recommendation) — filters strides by table-budget feasibility
(:func:`~repro.kernels.strided.plan_nbytes` against
``kernel_table_budget``, the same arithmetic as
:func:`~repro.kernels.strided.pick_stride`), prices the survivors at
``input_bytes`` times a measured rate, and materialises the winner as
concrete :class:`ParseOptions`.  The :class:`PlanDecision` keeps every
candidate with its price and the reason it lost.

A candidate's rate is the first the
:class:`~repro.plan.calibration.CalibrationStore` holds of: its
configuration key, the workload fingerprint, the store-wide average —
else :data:`DEFAULT_SECONDS_PER_BYTE`.  A candidate without a
measurement of its own is priced no lower than the best measured one,
and ties go to the configured ``chunk_size`` and resolved stride, so an
uncalibrated planner runs what an unplanned parse runs.

Online half: :meth:`Planner.observe` folds a finished parse's measured
seconds per byte into the store, so the next :meth:`plan` — the next
partition of a stream, the next request of a service — prices
candidates by what they measured.  :meth:`Planner.refine` closes the
loop actively by running unmeasured candidates once each.

Every decision emits ``plan.*`` spans and metrics (see
``docs/PLANNER.md`` for the full name list).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.columnar.schema import DataType
from repro.core.options import ParseOptions
from repro.kernels.strided import SUPPORTED_STRIDES, plan_nbytes
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.plan.calibration import CalibrationStore, chunk_bucket, \
    config_key
from repro.plan.stats import InputStats, probe_input, workload_fingerprint

__all__ = ["Planner", "PlanDecision", "PlanCandidate",
           "CHUNK_CANDIDATES", "DEFAULT_SECONDS_PER_BYTE",
           "WORKERS_INPUT_THRESHOLD"]

MiB = 1024 ** 2

#: Chunk sizes every enumeration considers (plus the configured size).
#: Spans the paper's 4-64 B range and the larger sizes the vectorised
#: substrate may reward; measurements decide between them.
CHUNK_CANDIDATES = (16, 31, 64, 128)

#: The rate a store without any measurement prices at: 20 MiB/s, the
#: middle of the library's end-to-end throughputs on the 8 MiB
#: benchmark workloads (15-30 MiB/s).
DEFAULT_SECONDS_PER_BYTE = 1.0 / (20 * MiB)

#: Inputs below this run serial: a process pool's spawn/ship overhead
#: needs tens of megabytes of byte-bound work to amortise.
WORKERS_INPUT_THRESHOLD = 64 * MiB

#: Worker-count ceiling the planner will recommend.
MAX_PLAN_WORKERS = 4


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the knob space, priced (or ruled out)."""

    chunk_size: int
    stride: int
    feasible: bool
    #: Estimated seconds; ``None`` for infeasible candidates.
    estimated_seconds: float | None
    #: ``True`` when the price is this configuration's own measurement.
    calibrated: bool
    chosen: bool
    #: Why the candidate lost (or ``"chosen"``).
    reason: str

    def as_dict(self) -> dict:
        return {
            "chunk_size": self.chunk_size,
            "kernel_stride": self.stride,
            "feasible": self.feasible,
            "estimated_seconds": self.estimated_seconds,
            "calibrated": self.calibrated,
            "chosen": self.chosen,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class PlanDecision:
    """A planning verdict: the winner, and why everyone else lost."""

    chosen: ParseOptions
    workers: int
    fingerprint: str
    stats: InputStats
    candidates: tuple[PlanCandidate, ...]
    estimated_seconds: float
    calibrated: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def winner(self) -> PlanCandidate:
        return next(c for c in self.candidates if c.chosen)

    def rationale(self) -> list[str]:
        """Human-readable decision log."""
        w = self.winner
        lines = [
            f"fingerprint {self.fingerprint}: chose chunk_size="
            f"{w.chunk_size} kernel_stride={w.stride} "
            f"workers={self.workers} "
            f"({self.estimated_seconds * 1e3:.2f} ms estimated"
            f"{', calibrated' if self.calibrated else ''})"]
        for c in self.candidates:
            if c.chosen:
                continue
            lines.append(
                f"  rejected chunk={c.chunk_size} k={c.stride}: "
                f"{c.reason}")
        lines.extend(f"  note: {note}" for note in self.notes)
        return lines

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "chosen": {
                "chunk_size": self.chosen.chunk_size,
                "kernel_stride": self.chosen.kernel_stride,
                "workers": self.workers,
            },
            "estimated_seconds": self.estimated_seconds,
            "calibrated": self.calibrated,
            "candidates": [c.as_dict() for c in self.candidates],
            "rationale": self.rationale(),
        }


class Planner:
    """Self-tuning configuration planner (see module docstring).

    One planner instance accumulates calibration across every parse it
    plans or observes — share it (a service shares one across requests;
    the CLI builds one per invocation; the parser facade falls back to a
    process-wide default).
    """

    def __init__(self, store: CalibrationStore | None = None,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS):
        self.store = store if store is not None else CalibrationStore()
        self.tracer = tracer
        self.metrics = metrics
        #: fingerprint -> last PlanDecision (re-plan change detection).
        self._decisions: dict[str, PlanDecision] = {}

    def _rate(self, *keys: str) -> float:
        """Seconds per byte: the store's first of ``keys``, then its
        store-wide average, then the prior."""
        rate = self.store.rate(*keys)
        return DEFAULT_SECONDS_PER_BYTE if rate is None else rate

    # -- static planning ----------------------------------------------------

    def plan(self, data, options: ParseOptions | None = None,
             tracer: Tracer | None = None,
             metrics: MetricsRegistry | None = None) -> PlanDecision:
        """Probe ``data`` and pick a configuration for ``options``."""
        tracer = tracer if tracer is not None else self.tracer
        metrics = metrics if metrics is not None else self.metrics
        base = options if options is not None else ParseOptions()

        if tracer.enabled:
            with tracer.span("plan.probe",
                             input_bytes=int(len(data))):
                stats = probe_input(data, base)
        else:
            stats = probe_input(data, base)
        fingerprint = stats.fingerprint()

        decision = self._decide(stats, fingerprint, base)
        previous = self._decisions.get(fingerprint)
        self._decisions[fingerprint] = decision

        w = decision.winner
        if metrics.enabled:
            metrics.count("plan.decisions")
            metrics.gauge("plan.chunk_size", w.chunk_size)
            metrics.gauge("plan.kernel_stride", w.stride)
            metrics.gauge("plan.workers", decision.workers)
            metrics.observe("plan.estimated.seconds",
                            decision.estimated_seconds)
        if tracer.enabled:
            with tracer.span("plan.decide", fingerprint=fingerprint,
                             chunk_size=w.chunk_size,
                             kernel_stride=w.stride,
                             workers=decision.workers,
                             calibrated=decision.calibrated,
                             estimated_ms=round(
                                 decision.estimated_seconds * 1e3, 3)):
                pass
        if previous is not None and previous.chosen != decision.chosen:
            if metrics.enabled:
                metrics.count("plan.replans")
            if tracer.enabled:
                with tracer.span("plan.replan", fingerprint=fingerprint,
                                 chunk_size=w.chunk_size,
                                 kernel_stride=w.stride):
                    pass
        return decision

    def _decide(self, stats: InputStats, fingerprint: str,
                base: ParseOptions) -> PlanDecision:
        input_bytes = max(1, stats.input_bytes)
        automaton = base._sweep_dfa()
        budget = base.kernel_table_budget
        notes: list[str] = []
        if not stats.sniffed_agrees:
            notes.append("dialect sniffer preferred a different "
                         "delimiter; planning with the configured one")

        # Stride candidates: the feasibility half of the knob space.
        strides: list[tuple[int, bool, str]] = []
        if base.kernel_stride is not None:
            strides.append((base.kernel_stride, True, "pinned by options"))
        else:
            for k in SUPPORTED_STRIDES:
                need = plan_nbytes(automaton.num_groups,
                                   automaton.num_states, k)
                if need <= budget:
                    strides.append((k, True, ""))
                else:
                    strides.append((k, False,
                                    f"k-gram plan needs {need} B > "
                                    f"table budget {budget} B"))
            strides.append((1, True, ""))

        chunks = sorted({base.chunk_size, *CHUNK_CANDIDATES})
        scored: list[dict] = []
        for chunk in chunks:
            for stride, feasible, why in strides:
                key = config_key(fingerprint, chunk, stride)
                scored.append(dict(
                    chunk_size=chunk, stride=stride, feasible=feasible,
                    rate=self._rate(key, fingerprint),
                    calibrated=feasible and self.store.observed(key),
                    seconds=None, reason=why))
        feasible = [c for c in scored if c["feasible"]]
        measured = [c["rate"] for c in feasible if c["calibrated"]]
        for c in feasible:
            if measured and not c["calibrated"]:
                c["rate"] = max(c["rate"], min(measured))
            c["seconds"] = input_bytes * c["rate"]
        preferred = (base.chunk_size, base.resolved_stride())
        best = min(feasible, key=lambda c: (
            c["seconds"], not c["calibrated"],
            (c["chunk_size"], c["stride"]) != preferred))

        candidates = []
        for c in scored:
            chosen = c is best
            if chosen:
                reason = "chosen"
            elif not c["feasible"]:
                reason = c["reason"]
            else:
                reason = (f"estimated {c['seconds'] * 1e3:.2f} ms vs "
                          f"{best['seconds'] * 1e3:.2f} ms"
                          + (" (calibrated)" if c["calibrated"] else ""))
            candidates.append(PlanCandidate(
                chunk_size=c["chunk_size"], stride=c["stride"],
                feasible=c["feasible"],
                estimated_seconds=c["seconds"],
                calibrated=c["calibrated"], chosen=chosen, reason=reason))

        chosen_options = base.with_(
            plan=None, chunk_size=best["chunk_size"],
            kernel_stride=best["stride"])

        workers = 1
        if stats.input_bytes >= WORKERS_INPUT_THRESHOLD:
            workers = min(MAX_PLAN_WORKERS, os.cpu_count() or 1)
            notes.append(f"input >= {WORKERS_INPUT_THRESHOLD >> 20} MiB: "
                         f"recommending {workers} shard workers")

        return PlanDecision(
            chosen=chosen_options, workers=workers,
            fingerprint=fingerprint, stats=stats,
            candidates=tuple(candidates),
            estimated_seconds=best["seconds"],
            calibrated=best["calibrated"], notes=tuple(notes))

    def plan_options(self, data, options: ParseOptions | None = None,
                     tracer: Tracer | None = None,
                     metrics: MetricsRegistry | None = None
                     ) -> ParseOptions:
        """The one-call entry the parser facade uses for ``plan="auto"``."""
        return self.plan(data, options, tracer=tracer,
                         metrics=metrics).chosen

    # -- online adaptation ---------------------------------------------------

    def observe(self, result, metrics: MetricsRegistry | None = None
                ) -> str:
        """Fold a finished parse's measured seconds per byte into the
        store.

        ``result`` is a :class:`~repro.core.result.ParseResult`; returns
        the fingerprint the observation calibrated.  Works identically
        for serial and sharded runs: the step timer survives the process
        boundary, so both calibrate the same fingerprint.
        """
        metrics = metrics if metrics is not None else self.metrics
        options, table = result.options, result.table
        columns = max(1, table.num_columns)
        # Every non-string column costs conversion work (bool included).
        numeric = sum(1 for f in table.schema
                      if f.dtype is not DataType.STRING)
        fingerprint = workload_fingerprint(
            options.dialect, columns,
            result.input_bytes / max(1, result.num_rows), numeric / columns)
        seconds = result.timer.total()
        if seconds <= 0.0 or result.input_bytes == 0:
            return fingerprint
        key = config_key(fingerprint, options.chunk_size,
                         options.resolved_stride())
        self.store.observe(key, fingerprint, seconds / result.input_bytes)
        if metrics.enabled:
            metrics.count("plan.calibration.updates")
            metrics.gauge("plan.calibration.version", self.store.version)
        return fingerprint

    def refine(self, data, options: ParseOptions | None = None,
               rounds: int = 4, executor=None) -> PlanDecision:
        """Actively close the loop: measure candidates, re-plan.

        Each round plans, then runs the cheapest-priced candidate whose
        configuration has no measurement yet (one real parse) and feeds
        the measurement back.  Chunk size is explored breadth-first:
        every unmeasured chunk bucket gets a configuration timed before
        any round is spent on a stride variant of a bucket that already
        has one.  Stops early once every feasible candidate is measured.
        Returns the final, evidence-backed decision.
        """
        from repro.core.parser import ParPaRawParser
        base = options if options is not None else ParseOptions()
        decision = self.plan(data, base)
        for _ in range(max(0, rounds)):
            unexplored = [c for c in decision.candidates
                          if c.feasible and not c.calibrated]
            if not unexplored:
                break
            explored_buckets = {
                chunk_bucket(c.chunk_size)
                for c in decision.candidates if c.calibrated}
            fresh = [c for c in unexplored
                     if chunk_bucket(c.chunk_size) not in explored_buckets]
            target = min(fresh or unexplored,
                         key=lambda c: c.estimated_seconds)
            trial = base.with_(
                plan=None, chunk_size=target.chunk_size,
                kernel_stride=target.stride)
            result = ParPaRawParser(trial, executor=executor).parse(data)
            self.observe(result)
            decision = self.plan(data, base)
        return decision

    # -- admission pricing ---------------------------------------------------

    def estimate_cost(self, input_bytes: int,
                      options: ParseOptions | None = None,
                      fingerprint: str | None = None) -> float:
        """Estimated seconds to parse ``input_bytes`` at ``options``.

        Priced like a plan candidate: ``input_bytes`` times the rate of
        the configuration key, else the fingerprint (both only when
        ``fingerprint`` is given), else the store-wide average, else the
        prior.  The estimate sharpens as requests complete — the ingest
        service uses it to price ``retry_after`` hints and per-tenant
        cost budgets.
        """
        keys: tuple[str, ...] = ()
        if fingerprint is not None:
            base = options if options is not None else ParseOptions()
            keys = (config_key(fingerprint, base.chunk_size,
                               base.resolved_stride()), fingerprint)
        estimate = max(1, int(input_bytes)) * self._rate(*keys)
        if self.metrics.enabled:
            self.metrics.observe("plan.estimate.seconds", estimate)
        return estimate
