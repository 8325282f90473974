"""The ParPaRaw parser: the stage pipeline behind a one-call facade.

:class:`ParPaRawParser` wires the phases of paper §3-§4 together as an
explicit stage pipeline (:mod:`repro.core.stages`):

``prune -> chunk -> stv -> scan -> tag -> validate -> partition -> convert``

scheduled by a pluggable executor (:mod:`repro.exec`) — the serial
executor by default, or the sharded multiprocess executor — with
wall-clock step timing under the paper's step names (``prune``/``parse``/
``scan``/``tag``/``partition``/``convert``), so measured breakdowns line
up with the Figure 9/11 benchmarks regardless of the backend.
:func:`parse_bytes` is the one-call convenience entry point.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.core.options import ParseOptions
from repro.core.result import ParseResult
from repro.core.stages import (
    ConvertedOutput,
    PipelineContext,
    RawInput,
    as_input_array,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.utils.timing import StepTimer

__all__ = ["ParPaRawParser", "parse_bytes", "set_default_executor_factory",
           "set_default_planner_factory"]

#: Factory invoked when a parser is built without an explicit executor.
#: ``repro.exec`` registers the :class:`~repro.exec.SerialExecutor` here at
#: import time (dependency inversion: the executor layer depends on the
#: pipeline, never the reverse, so ``repro.core`` stays import-clean).
_default_executor_factory = None

#: Factory invoked when ``options.plan == "auto"`` and no planner was
#: passed.  ``repro.plan`` registers its process-wide shared planner here
#: at import time (same inversion as the executor factory).
_default_planner_factory = None

#: Inputs at least this large return the heap's free pages to the OS once
#: parsed (see :meth:`ParPaRawParser.parse`); below it the per-symbol
#: buffers are small next to the interpreter's own footprint.
TRIM_INPUT_BYTES = 4 << 20

# glibc's ``malloc_trim``; ``None`` where the C library has none.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def set_default_executor_factory(factory) -> None:
    """Register the zero-argument factory for the default executor."""
    global _default_executor_factory
    _default_executor_factory = factory


def set_default_planner_factory(factory) -> None:
    """Register the zero-argument factory for the default planner."""
    global _default_planner_factory
    _default_planner_factory = factory


class _InlineSchedule:
    """Fallback scheduler when no executor layer has been registered.

    Runs the default pipeline inline; only reachable when ``repro.core``
    is imported standalone, without the ``repro`` package root (which
    imports ``repro.exec`` and registers the real default).
    """

    def execute(self, ctx, payload, *, until=None):
        from repro.core.stages import default_pipeline
        return default_pipeline().run(ctx, payload, until=until)

    def close(self) -> None:
        pass


def parse_bytes(data: bytes, options: ParseOptions | None = None,
                executor=None, tracer: Tracer = NULL_TRACER,
                metrics: MetricsRegistry = NULL_METRICS, planner=None,
                **option_kwargs) -> ParseResult:
    """Parse ``data`` in one call.

    ``option_kwargs`` are forwarded to :class:`ParseOptions` when no
    options object is given — e.g. ``parse_bytes(raw, chunk_size=16)``.
    ``executor`` selects the execution backend (default: serial);
    ``tracer``/``metrics`` attach :mod:`repro.obs` sinks; ``planner``
    attaches a :class:`repro.plan.Planner` (see :class:`ParPaRawParser`).
    """
    if options is None:
        options = ParseOptions(**option_kwargs)
    elif option_kwargs:
        options = options.with_(**option_kwargs)
    return ParPaRawParser(options, executor=executor, tracer=tracer,
                          metrics=metrics, planner=planner).parse(data)


class ParPaRawParser:
    """Massively parallel parser for delimiter-separated data.

    Parameters
    ----------
    options:
        Parse configuration (defaults to :class:`ParseOptions`).
    executor:
        Execution backend from :mod:`repro.exec`; ``None`` selects the
        :class:`~repro.exec.SerialExecutor`, which reproduces the
        historical monolithic behaviour bit for bit.  Pass a
        :class:`~repro.exec.ShardedExecutor` to spread the byte-bound
        phases over a process pool.
    tracer / metrics:
        Observability sinks from :mod:`repro.obs`.  The defaults are the
        shared no-op singletons; pass real instances to record spans and
        counters (see ``docs/OBSERVABILITY.md``).
    planner:
        Self-tuning planner from :mod:`repro.plan` (duck-typed:
        ``plan_options``/``observe``).  When ``options.plan == "auto"``
        the planner re-plans the performance knobs per input before
        parsing; whenever a planner is attached, every finished parse is
        fed back through ``observe`` so its calibration store learns the
        substrate's real stage costs.  ``None`` falls back to the
        process-wide planner registered by ``repro.plan`` (only when
        ``plan == "auto"``).

    Example
    -------
    >>> from repro.core import ParPaRawParser, ParseOptions
    >>> result = ParPaRawParser(ParseOptions()).parse(b'a,b\\n"x,y",2\\n')
    >>> result.table.num_rows
    2
    >>> result.table.row(1)
    ('x,y', '2')
    """

    def __init__(self, options: ParseOptions | None = None,
                 executor=None, tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS, planner=None):
        self.options = options if options is not None else ParseOptions()
        self._dfa = self.options.resolved_dfa()
        if executor is None:
            if _default_executor_factory is not None:
                executor = _default_executor_factory()
            else:
                executor = _InlineSchedule()
        self.executor = executor
        self.tracer = tracer
        self.metrics = metrics
        if planner is None and self.options.plan == "auto" \
                and _default_planner_factory is not None:
            planner = _default_planner_factory()
        self.planner = planner

    # -- public API ---------------------------------------------------------

    def parse(self, data: bytes | bytearray | np.ndarray) -> ParseResult:
        """Parse ``data`` and return the columnar result."""
        timer = StepTimer()
        raw = self._as_array(data)
        tracer, metrics = self.tracer, self.metrics
        options, dfa = self.options, self._dfa
        if options.plan == "auto":
            if self.planner is not None:
                options = self.planner.plan_options(
                    raw, options, tracer=tracer, metrics=metrics)
                dfa = options.resolved_dfa()
            else:
                # No planner layer loaded: parse with the knobs as given.
                options = options.with_(plan=None)
        ctx = PipelineContext(options=options, dfa=dfa,
                              timer=timer, tracer=tracer, metrics=metrics)
        payload = RawInput(raw=raw)
        if metrics.enabled:
            metrics.count("bytes.in", int(raw.size))
        if tracer.enabled:
            with tracer.span("parse", input_bytes=int(raw.size)):
                out: ConvertedOutput = self.executor.execute(ctx, payload)
        else:
            out = self.executor.execute(ctx, payload)
        if raw.size >= TRIM_INPUT_BYTES and _malloc_trim is not None:
            # The pipeline's per-symbol buffers are freed into the C heap,
            # which keeps them resident unless they sit at its top; where
            # the surviving allocations landed would otherwise decide
            # whether a process that parses repeatedly settles at one
            # resident size or another ~20% higher.
            _malloc_trim(0)
        selection = out.selection
        result = ParseResult(
            table=out.table,
            num_records=selection.num_records,
            num_rows=selection.num_rows,
            rejected_records=selection.rejected_records,
            validation=selection.report,
            timer=timer,
            collaboration=out.collaboration,
            options=options,
            input_bytes=int(raw.size),
        )
        if self.planner is not None:
            self.planner.observe(result, metrics=metrics)
        return result

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _as_array(data: bytes | bytearray | np.ndarray) -> np.ndarray:
        return as_input_array(data)
