"""Single-pass prefix scan with decoupled look-back (Merrill & Garland 2016).

ParPaRaw's scans build on the single-pass scan (paper §2): the input is
split into *tiles*, each processed by one thread block.  A tile first
publishes its local **aggregate**; a designated thread then *looks back* over
predecessor tiles' descriptors, accumulating predecessor aggregates until it
finds one that already published an **inclusive prefix**, at which point the
tile can compute and publish its own inclusive prefix.  This needs only a
single pass over the data (versus the classic three-kernel scan-then-add),
and the look-back chains are short in practice.

This implementation simulates the tile machinery faithfully — per-tile
descriptors with the ``INVALID → AGGREGATE_AVAILABLE → PREFIX_AVAILABLE``
status protocol — while executing tiles in an arbitrary (caller-controllable)
order to model concurrent scheduling.  A tile whose look-back cannot complete
yet (a predecessor still INVALID) blocks until that predecessor has run,
mirroring the GPU's spin-wait; the simulation detects scheduling orders that
would deadlock on a real device (they cannot, since GPUs schedule tile 0
eventually — here we simply defer blocked tiles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Generic, Sequence, TypeVar

from repro.reference.scan.operators import Monoid
from repro.reference.scan.sequential import exclusive_scan as _seq_exclusive

T = TypeVar("T")

__all__ = ["single_pass_scan", "TileStatus", "TileDescriptor", "ScanStatistics"]


class TileStatus(Enum):
    """Publication state of a tile's descriptor."""

    INVALID = 0
    AGGREGATE_AVAILABLE = 1
    PREFIX_AVAILABLE = 2


@dataclass
class TileDescriptor(Generic[T]):
    """The per-tile state shared through global memory on a GPU."""

    status: TileStatus = TileStatus.INVALID
    aggregate: T | None = None
    inclusive_prefix: T | None = None


@dataclass
class ScanStatistics:
    """Bookkeeping for analysis: how far did tiles have to look back?"""

    tiles: int = 0
    lookback_steps: int = 0
    deferred_tiles: int = 0
    max_lookback: int = 0
    per_tile_lookback: list[int] = field(default_factory=list)


def single_pass_scan(items: Sequence[T], monoid: Monoid[T],
                     tile_size: int = 4,
                     schedule: Sequence[int] | None = None,
                     exclusive: bool = True,
                     statistics: ScanStatistics | None = None) -> list[T]:
    """Scan ``items`` using the decoupled look-back algorithm.

    Parameters
    ----------
    items:
        Input sequence.
    monoid:
        Associative operator with identity (need not be commutative).
    tile_size:
        Elements per tile (per simulated thread block).
    schedule:
        Optional permutation of tile indexes giving the order tiles are
        *attempted* in, to model out-of-order block scheduling.  Tiles that
        cannot finish their look-back yet are deferred and retried, exactly
        like a spinning GPU block.  Defaults to in-order.
    exclusive:
        Return the exclusive scan (default) or the inclusive scan.
    statistics:
        Optional :class:`ScanStatistics` to fill with look-back telemetry.

    Returns
    -------
    list
        Scanned values, same length as input.
    """
    n = len(items)
    if n == 0:
        return []
    if tile_size <= 0:
        raise ValueError("tile_size must be positive")
    num_tiles = (n + tile_size - 1) // tile_size
    if schedule is None:
        order = list(range(num_tiles))
    else:
        order = list(schedule)
        if sorted(order) != list(range(num_tiles)):
            raise ValueError(
                f"schedule must be a permutation of range({num_tiles})")

    descriptors: list[TileDescriptor[T]] = [TileDescriptor()
                                            for _ in range(num_tiles)]
    output: list[T | None] = [None] * n
    if statistics is not None:
        statistics.tiles = num_tiles
        statistics.per_tile_lookback = [0] * num_tiles

    def run_tile(tile: int) -> bool:
        """Attempt to run one tile; return False if it must be deferred."""
        lo = tile * tile_size
        hi = min(lo + tile_size, n)
        tile_items = items[lo:hi]

        # Local (intra-tile) exclusive scan + aggregate, as a block-wide
        # scan in shared memory would produce.
        local_excl = _seq_exclusive(tile_items, monoid)
        aggregate = monoid.combine(local_excl[-1], tile_items[-1])

        desc = descriptors[tile]
        if tile == 0:
            desc.aggregate = aggregate
            desc.inclusive_prefix = aggregate
            desc.status = TileStatus.PREFIX_AVAILABLE
            tile_prefix = monoid.identity()
        else:
            if desc.status is TileStatus.INVALID:
                desc.aggregate = aggregate
                desc.status = TileStatus.AGGREGATE_AVAILABLE
            # Decoupled look-back: accumulate predecessor aggregates from
            # nearest to farthest until a published inclusive prefix stops
            # the walk.  (Right-to-left accumulation must respect
            # non-commutativity: we prepend.)
            exclusive_prefix = monoid.identity()
            steps = 0
            pred = tile - 1
            while True:
                pdesc = descriptors[pred]
                steps += 1
                if pdesc.status is TileStatus.INVALID:
                    # Predecessor hasn't even published an aggregate; on the
                    # GPU we would spin — in the simulation, defer the tile.
                    if statistics is not None:
                        statistics.deferred_tiles += 1
                    return False
                if pdesc.status is TileStatus.PREFIX_AVAILABLE:
                    assert pdesc.inclusive_prefix is not None
                    exclusive_prefix = monoid.combine(pdesc.inclusive_prefix,
                                                      exclusive_prefix)
                    break
                assert pdesc.aggregate is not None
                exclusive_prefix = monoid.combine(pdesc.aggregate,
                                                  exclusive_prefix)
                pred -= 1
            if statistics is not None:
                statistics.lookback_steps += steps
                statistics.max_lookback = max(statistics.max_lookback, steps)
                statistics.per_tile_lookback[tile] = steps
            desc.inclusive_prefix = monoid.combine(exclusive_prefix, aggregate)
            desc.status = TileStatus.PREFIX_AVAILABLE
            tile_prefix = exclusive_prefix

        # local_excl is the tile-local *exclusive* scan, so combining with
        # the tile prefix directly yields the global exclusive scan.
        for i, local in enumerate(local_excl):
            output[lo + i] = monoid.combine(tile_prefix, local)
        return True

    pending = list(order)
    while pending:
        still_pending = []
        progressed = False
        for tile in pending:
            if run_tile(tile):
                progressed = True
            else:
                still_pending.append(tile)
        if not progressed:
            # Cannot happen with a valid permutation: tile 0 always runs and
            # unblocks the chain; guard against a logic error regardless.
            raise RuntimeError("decoupled look-back made no progress")
        pending = still_pending

    scanned = [v for v in output]
    assert all(v is not None for v in scanned)
    if exclusive:
        return scanned  # type: ignore[return-value]
    return [monoid.combine(scanned[i], items[i])  # type: ignore[arg-type]
            for i in range(n)]
