"""repro.plan: the self-tuning configuration planner.

Prices candidate configurations from measured seconds per input byte:
finished parses feed their step timings into the calibration store.
Sits above ``repro.core`` and ``repro.obs``, and below ``repro.serve``
(admission pricing).
``repro.core`` never imports this package — the parser facade reaches a
shared default planner through the factory hook registered below, the
same inversion ``repro.exec`` uses for the default executor.
"""

from __future__ import annotations

from repro.core.parser import set_default_planner_factory
from repro.plan.calibration import CalibrationStore, config_key
from repro.plan.planner import PlanCandidate, PlanDecision, Planner
from repro.plan.stats import (
    DEFAULT_SAMPLE_BYTES,
    InputStats,
    probe_input,
    workload_fingerprint,
)

__all__ = [
    "Planner",
    "PlanDecision",
    "PlanCandidate",
    "CalibrationStore",
    "config_key",
    "InputStats",
    "probe_input",
    "workload_fingerprint",
    "DEFAULT_SAMPLE_BYTES",
]

_shared_planner: Planner | None = None


def shared_planner() -> Planner:
    """The process-wide default planner (one calibration store).

    Parses that say ``plan="auto"`` without supplying a planner all share
    this instance, so calibration accumulates across calls the same way
    it does inside a service.
    """
    global _shared_planner
    if _shared_planner is None:
        _shared_planner = Planner()
    return _shared_planner


set_default_planner_factory(shared_planner)
