"""The executor contract.

An executor schedules the stages of a :class:`~repro.core.stages.StagePipeline`
over a :class:`~repro.core.stages.PipelineContext` and an input payload.
It must be *observationally serial*: whatever parallelism it employs, the
payload it returns is bit-for-bit the one the serial schedule produces.
"""

from __future__ import annotations

import abc

from repro.core.stages import PipelineContext, RawInput, default_pipeline
from repro.errors import ExecutorError

__all__ = ["Executor"]


class Executor(abc.ABC):
    """Schedules pipeline stages; see :mod:`repro.exec`."""

    def __init__(self):
        #: The stage pipeline this executor drives.
        self.pipeline = default_pipeline()
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_open(self) -> None:
        """Raise :class:`~repro.errors.ExecutorError` if closed."""
        if self._closed:
            raise ExecutorError(
                f"{type(self).__name__} has been closed; "
                f"create a new executor to parse again")

    @abc.abstractmethod
    def execute(self, ctx: PipelineContext, payload: RawInput, *,
                until: str | None = None):
        """Run the pipeline on ``payload``.

        Parameters
        ----------
        ctx:
            Options, automaton and the timer receiving step durations.
        payload:
            The raw input payload.
        until:
            Stop after the named stage and return its output payload
            (e.g. ``"tag"`` returns the
            :class:`~repro.core.stages.TaggedInput` — used by the
            streaming parser's record-boundary search).  ``None`` runs
            to completion and returns the
            :class:`~repro.core.stages.ConvertedOutput`.
        """

    def close(self) -> None:
        """Release executor resources (worker pools); idempotent."""
        self._closed = True

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
