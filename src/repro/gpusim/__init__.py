"""GPU execution model: device specifications and a calibrated cost model.

The paper maps ParPaRaw onto an NVIDIA Titan X (Pascal).  No GPU is
available in this reproduction, so this subpackage supplies **a
calibrated execution model** — device specifications
(:mod:`~repro.gpusim.device`), a kernel-launch/occupancy/bank-conflict
model (:mod:`~repro.gpusim.kernel`, :mod:`~repro.gpusim.memory`,
:mod:`~repro.gpusim.warp`) and a per-pipeline-step cost model
(:mod:`~repro.gpusim.cost_model`) that converts workload statistics into
simulated durations, calibrated against the paper's reported numbers so
the benchmark harness can regenerate the *shape* of Figures 9-13.  The
planner prices configurations and serve admission with it.

Bit-exact software models of the GPU devices the paper introduces — the
BFI/BFE/``bfind``/``popc`` intrinsics, the branchless SWAR symbol matcher
of Table 2 and the multi-fragment in-register array of Figure 8 — are
reference code in :mod:`repro.reference.gpusim`.
"""

from repro.gpusim.device import DeviceSpec, TITAN_X_PASCAL, GTX_1080, V100
from repro.gpusim.kernel import KernelLaunch, KernelModel
from repro.gpusim.memory import SharedMemoryModel, GlobalMemoryModel
from repro.gpusim.warp import WarpExecutionModel
from repro.gpusim.cost_model import PipelineCostModel, WorkloadStats, StepCosts

__all__ = [
    "DeviceSpec",
    "TITAN_X_PASCAL",
    "GTX_1080",
    "V100",
    "KernelLaunch",
    "KernelModel",
    "SharedMemoryModel",
    "GlobalMemoryModel",
    "WarpExecutionModel",
    "PipelineCostModel",
    "WorkloadStats",
    "StepCosts",
]
