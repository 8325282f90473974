"""Hierarchical GPU-style scan: warp -> block -> device.

The single-pass scan the paper builds on (Merrill & Garland 2016) is the
*device-level* tier of a three-level hierarchy; inside each thread block
the tile-local scan is itself composed:

1. **warp scan** — each warp of 32 lanes scans its values with the
   shuffle-based Hillis-Steele doubling (``log2 32 = 5`` steps);
2. **block scan** — warp aggregates are scanned (by one warp) and added
   back as per-warp prefixes;
3. **device scan** — block aggregates flow through the decoupled
   look-back protocol (:mod:`repro.reference.scan.decoupled_lookback`).

This module implements tiers 1 and 2 faithfully (explicit lane/warp
structure, double-buffered sweeps) and composes tier 3 from the existing
single-pass scan, giving the full GPU scan architecture in executable
form.  Every tier works with any associative operator — including the
paper's non-commutative STV composition — and equals the sequential scan
(property tested).
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.reference.scan.decoupled_lookback import single_pass_scan
from repro.reference.scan.operators import Monoid
from repro.reference.scan.sequential import exclusive_scan as _seq_exclusive

T = TypeVar("T")

__all__ = ["warp_scan", "block_scan", "hierarchical_device_scan"]

WARP_SIZE = 32


def warp_scan(lane_values: Sequence[T], monoid: Monoid[T],
              warp_size: int = WARP_SIZE) -> list[T]:
    """Inclusive intra-warp scan via shuffle-up doubling.

    Models ``__shfl_up_sync``: at step ``d`` every lane ``l >= 2^d``
    combines the value from lane ``l - 2^d`` (read from the *previous*
    step's registers — double buffered) before its own.
    """
    n = len(lane_values)
    if n > warp_size:
        raise ValueError(f"a warp holds at most {warp_size} lanes")
    registers = list(lane_values)
    offset = 1
    while offset < n:
        previous = list(registers)  # all lanes shuffle simultaneously
        for lane in range(offset, n):
            registers[lane] = monoid.combine(previous[lane - offset],
                                             previous[lane])
        offset *= 2
    return registers


def block_scan(thread_values: Sequence[T], monoid: Monoid[T],
               warp_size: int = WARP_SIZE,
               exclusive: bool = False) -> list[T]:
    """Block-wide scan composed from warp scans.

    1. every warp scans its lanes;
    2. the last lane of each warp (the warp aggregate) is scanned across
       warps (on a GPU: by warp 0, after a shared-memory round trip);
    3. each warp's lanes fold their preceding warps' aggregate in.
    """
    n = len(thread_values)
    if n == 0:
        return []
    # Tier 1: per-warp inclusive scans.
    warps = [list(thread_values[start:start + warp_size])
             for start in range(0, n, warp_size)]
    scanned = [warp_scan(w, monoid, warp_size) for w in warps]

    # Tier 2: scan of warp aggregates (exclusive -> per-warp prefix).
    aggregates = [w[-1] for w in scanned]
    prefixes = _seq_exclusive(aggregates, monoid)

    # Fold prefixes back in.
    inclusive: list[T] = []
    for warp_index, warp in enumerate(scanned):
        prefix = prefixes[warp_index]
        inclusive.extend(monoid.combine(prefix, value) for value in warp)
    if not exclusive:
        return inclusive
    return [monoid.identity()] + inclusive[:-1]


def hierarchical_device_scan(items: Sequence[T], monoid: Monoid[T],
                             block_size: int = 128,
                             warp_size: int = WARP_SIZE,
                             exclusive: bool = True) -> list[T]:
    """The full three-tier scan: warp -> block -> decoupled look-back.

    Equivalent to
    :func:`repro.reference.scan.decoupled_lookback.single_pass_scan` with
    tiles of ``block_size``, except each tile's local scan runs
    through the explicit warp/block machinery above, making the whole GPU
    scan architecture executable end to end.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    n = len(items)
    if n == 0:
        return []

    # Per-block local scans (tier 1+2), then device-level composition of
    # the block aggregates via decoupled look-back (tier 3).
    blocks = [list(items[start:start + block_size])
              for start in range(0, n, block_size)]
    local_inclusive = [block_scan(b, monoid, warp_size) for b in blocks]
    aggregates = [b[-1] for b in local_inclusive]
    block_prefixes = single_pass_scan(aggregates, monoid, tile_size=4,
                                      exclusive=True)

    out: list[T] = []
    for block_index, block in enumerate(local_inclusive):
        prefix = block_prefixes[block_index]
        out.extend(monoid.combine(prefix, value) for value in block)
    if not exclusive:
        return out
    return [monoid.identity()] + out[:-1]
