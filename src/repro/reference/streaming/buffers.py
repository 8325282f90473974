"""Double-buffer and carry-over bookkeeping (paper §4.4, Figure 7).

The streaming design allocates two buffers (A and B) on the device, each
with an input region, a prepended carry-over region, and a parsed-data
region.  While buffer A's input is being parsed, buffer B's input receives
the next partition; the incomplete record at the end of A's input is
copied into B's carry-over region so partition boundaries never split
records.

:class:`DoubleBuffer` tracks which logical resource each pipeline step
uses, and *verifies* the hazard the paper calls out: "the transfer of the
third partition to input buffer A does not take place before the
carry-over has been copied, as the carry-over would otherwise get
corrupted".  The pipeline simulator drives it; violations raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StreamingError

__all__ = ["DoubleBuffer"]


@dataclass
class DoubleBuffer:
    """Usage tracking for the two device buffers.

    Each buffer side has three hazard-tracked regions: ``input`` (raw
    partition bytes), ``carry`` (prepended carry-over) and ``data``
    (parsed output).  The simulator registers readers/writers with
    logical timestamps; a write overlapping an outstanding read raises.
    """

    #: buffer side -> region -> time the last reader finishes.
    read_free_at: dict[tuple[int, str], float] = field(default_factory=dict)
    #: buffer side -> region -> time the last writer finishes.
    write_free_at: dict[tuple[int, str], float] = field(default_factory=dict)

    _REGIONS = ("input", "carry", "data")

    def side(self, partition: int) -> int:
        """Which buffer (0 = A, 1 = B) a partition uses."""
        return partition % 2

    def _check(self, side: int, region: str) -> None:
        if side not in (0, 1) or region not in self._REGIONS:
            raise StreamingError(f"unknown buffer region {side}/{region}")

    def write(self, side: int, region: str, start: float,
              end: float) -> None:
        """Register a write to a region over [start, end)."""
        self._check(side, region)
        key = (side, region)
        if start < self.read_free_at.get(key, 0.0) - 1e-12:
            raise StreamingError(
                f"write to buffer {'AB'[side]} region {region!r} at "
                f"t={start:.6f}s would corrupt data still being read "
                f"(readers finish at {self.read_free_at[key]:.6f}s)")
        self.write_free_at[key] = max(self.write_free_at.get(key, 0.0), end)

    def read(self, side: int, region: str, start: float,
             end: float) -> None:
        """Register a read of a region over [start, end)."""
        self._check(side, region)
        key = (side, region)
        if start < self.write_free_at.get(key, 0.0) - 1e-12:
            raise StreamingError(
                f"read of buffer {'AB'[side]} region {region!r} at "
                f"t={start:.6f}s precedes its write completing at "
                f"{self.write_free_at[key]:.6f}s")
        self.read_free_at[key] = max(self.read_free_at.get(key, 0.0), end)

    def earliest_write(self, side: int, region: str) -> float:
        """Earliest time a new write to the region may begin."""
        self._check(side, region)
        return self.read_free_at.get((side, region), 0.0)

    def earliest_read(self, side: int, region: str) -> float:
        """Earliest time a new read of the region may begin."""
        self._check(side, region)
        return self.write_free_at.get((side, region), 0.0)
