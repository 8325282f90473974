"""Shared- and global-memory behaviour models.

Two memory effects shape the paper's measurements:

* **shared-memory bank conflicts** — Figure 9 shows small spikes for
  parsing and tagging at chunk sizes 32, 48 and 64 bytes, attributed to
  shared-memory bank conflicts and bad occupancy.  GPUs organise shared
  memory into 32 four-byte banks; when the per-thread stride (here, the
  chunk size) shares a large power-of-two factor with the bank count,
  multiple lanes of a warp hit the same bank and the accesses serialise.
  :class:`SharedMemoryModel` computes the conflict degree for a strided
  access pattern the standard way (distinct addresses per bank).

* **global-memory throughput** — most pipeline steps run at peak memory
  bandwidth (paper §4.1), so their cost is modelled as bytes-moved divided
  by effective bandwidth, with an efficiency factor for non-coalesced
  patterns.  :class:`GlobalMemoryModel` provides that conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from repro.errors import SimulationError
from repro.reference.gpusim.device import DeviceSpec

__all__ = ["SharedMemoryModel", "GlobalMemoryModel"]


@dataclass(frozen=True)
class SharedMemoryModel:
    """Bank-conflict model for strided shared-memory access."""

    num_banks: int = 32
    bank_width_bytes: int = 4

    def conflict_degree(self, stride_bytes: int,
                        warp_size: int = 32) -> int:
        """Worst-case serialisation factor for a warp's strided access.

        Lane ``l`` touches byte address ``l * stride_bytes``; the access
        serialises by the maximum number of lanes mapping to the same bank
        with distinct addresses.

        Strides that are a multiple of the bank width map lane ``l`` to
        word ``l * stride / 4``; the lanes then spread over
        ``num_banks / gcd(word_stride, num_banks)`` distinct banks and the
        access serialises by ``gcd(word_stride, num_banks)``.  Strides
        that are *not* word aligned (e.g. the paper's 31-byte chunks)
        spread lanes across all banks — conflict free, which is exactly
        why 31 outperforms 32 (Figure 9).

        >>> SharedMemoryModel().conflict_degree(31)
        1
        >>> SharedMemoryModel().conflict_degree(32)
        8
        >>> SharedMemoryModel().conflict_degree(64)
        16
        """
        if stride_bytes <= 0:
            raise SimulationError("stride must be positive")
        if stride_bytes % self.bank_width_bytes != 0:
            return 1
        word_stride = stride_bytes // self.bank_width_bytes
        return min(warp_size, gcd(word_stride, self.num_banks))

    def conflict_slowdown(self, stride_bytes: int,
                          warp_size: int = 32) -> float:
        """Multiplicative slowdown for shared-memory bound phases.

        Conflicts serialise only the shared-memory instructions, not the
        whole kernel, so the slowdown is damped: a degree-``d`` conflict
        costs ``1 + (d - 1) * weight`` with a fractional weight.
        """
        degree = self.conflict_degree(stride_bytes, warp_size)
        weight = 0.035  # fraction of kernel time in conflicted accesses
        return 1.0 + (degree - 1) * weight


@dataclass(frozen=True)
class GlobalMemoryModel:
    """Bytes-to-seconds conversion for bandwidth-bound steps."""

    device: DeviceSpec
    #: Achievable fraction of peak bandwidth for coalesced streams.
    coalesced_efficiency: float = 0.85
    #: Achievable fraction for scattered access (radix-sort scatter);
    #: the sort's shared-memory staging recovers much of the locality.
    scattered_efficiency: float = 0.70

    def stream_time(self, bytes_moved: float) -> float:
        """Seconds to stream ``bytes_moved`` coalesced bytes."""
        if bytes_moved < 0:
            raise SimulationError("bytes_moved must be non-negative")
        return bytes_moved / (self.device.memory_bandwidth
                              * self.coalesced_efficiency)

    def scatter_time(self, bytes_moved: float) -> float:
        """Seconds to scatter ``bytes_moved`` bytes to random offsets."""
        if bytes_moved < 0:
            raise SimulationError("bytes_moved must be non-negative")
        return bytes_moved / (self.device.memory_bandwidth
                              * self.scattered_efficiency)
