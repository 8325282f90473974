"""Kernel-launch and occupancy model.

Two launch-time effects matter for the reproduction:

* **fixed launch overhead** — the paper attributes ParPaRaw's efficiency
  drop on tiny inputs to the many kernel invocations of the type-conversion
  step, estimating 5-10 µs each (§5.1).  :class:`KernelModel` charges that
  fixed cost per launch, which reproduces the left side of Figure 10.

* **occupancy** — for tiny chunk sizes the number of threads explodes and
  per-thread initialisation dominates; for chunk sizes that are large
  powers of two, register/shared-memory pressure and bank conflicts reduce
  effective throughput (Figure 9's spikes).  :meth:`KernelModel.occupancy`
  gives the resident-warp fraction from the per-thread resource footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.reference.gpusim.device import DeviceSpec

__all__ = ["KernelLaunch", "KernelModel"]


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel invocation's footprint."""

    name: str
    num_threads: int
    registers_per_thread: int = 32
    shared_bytes_per_block: int = 0
    block_size: int = 128

    def __post_init__(self) -> None:
        if self.num_threads < 0:
            raise SimulationError("num_threads must be non-negative")
        if self.block_size <= 0:
            raise SimulationError("block_size must be positive")


@dataclass
class KernelModel:
    """Launch-cost and occupancy estimation for a device."""

    device: DeviceSpec
    #: Per-thread fixed initialisation cost in core-cycles (thread setup,
    #: index computation, meta-data reads).  Dominates at tiny chunk sizes.
    thread_init_cycles: float = 40.0

    def launch_overhead(self, num_launches: int = 1) -> float:
        """Fixed host-side cost of ``num_launches`` kernel invocations."""
        if num_launches < 0:
            raise SimulationError("num_launches must be non-negative")
        return num_launches * self.device.kernel_launch_overhead

    def occupancy(self, launch: KernelLaunch) -> float:
        """Fraction of the SM's warp slots the launch can keep resident.

        Limited by registers per SM and shared memory per SM; returns a
        value in (0, 1].
        """
        dev = self.device
        warps_per_block = -(-launch.block_size // dev.warp_size)
        max_warps = dev.max_threads_per_sm // dev.warp_size

        # Register limit.
        regs_per_block = launch.registers_per_thread * launch.block_size
        blocks_by_regs = (dev.registers_per_sm // regs_per_block
                          if regs_per_block else 10 ** 9)
        # Shared-memory limit.
        if launch.shared_bytes_per_block:
            blocks_by_smem = (dev.shared_memory_per_sm
                              // launch.shared_bytes_per_block)
        else:
            blocks_by_smem = 10 ** 9
        blocks = min(blocks_by_regs, blocks_by_smem)
        if blocks <= 0:
            raise SimulationError(
                f"kernel {launch.name!r} cannot fit a single block on an SM")
        resident_warps = min(blocks * warps_per_block, max_warps)
        return resident_warps / max_warps

    def thread_setup_time(self, launch: KernelLaunch) -> float:
        """Aggregate per-thread initialisation time for a launch.

        ``num_threads * init_cycles`` of work spread over all cores.
        """
        total_cycles = launch.num_threads * self.thread_init_cycles
        return total_cycles / self.device.peak_ops_per_second

    def compute_time(self, launch: KernelLaunch,
                     cycles_per_thread: float) -> float:
        """Seconds for a compute-bound kernel at its occupancy.

        Occupancy below ~50% fails to hide latency; the achieved
        throughput scales with ``min(1, occupancy / 0.5)``.
        """
        occ = self.occupancy(launch)
        efficiency = min(1.0, occ / 0.5)
        total_cycles = launch.num_threads * cycles_per_thread
        return (total_cycles / self.device.peak_ops_per_second) / efficiency
