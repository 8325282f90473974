"""The paper's stable radix-sort partition (§3.3), as a test oracle.

A single partitioning pass is the GPU-classic three-step dance:

1. histogram of items per digit value,
2. exclusive prefix sum over the histogram (partition start offsets),
3. stable placement of every item at ``offset[digit] + rank-within-digit``.

No ``np.argsort`` anywhere; the rank-within-digit is materialised per
digit value with a vectorised ``np.flatnonzero`` (the positions of a
digit value, in input order, *are* its stable ranks), which stands in for
the prefix-sum-based ranking a GPU implementation performs.

:func:`repro.core.partition.partition_field_runs`, the partition every
parse runs, is tested bit-identical to :func:`partition_by_column`.
"""

from __future__ import annotations

# parlint: hot-path -- oracle of a byte-bound phase; loops need waivers

import numpy as np

from repro.core.partition import PartitionResult
from repro.errors import ParseError
from repro.scan.numpy_scan import exclusive_sum

__all__ = ["stable_radix_sort", "partition_by_column"]


def stable_radix_sort(keys: np.ndarray, radix_bits: int = 2,
                      max_key: int | None = None) -> np.ndarray:
    """Stable permutation sorting ``keys`` ascending, GPU-style.

    Parameters
    ----------
    keys:
        ``(n,)`` non-negative integer keys.
    radix_bits:
        Digit width per pass (the paper iterates over the bits of the
        column tags in fixed-size digits).  On this vectorised executor
        the per-pass ranking loop costs ``2**radix_bits`` array sweeps, so
        narrow digits win — the ablation benchmark measures the trade-off
        (a GPU prefers wide digits; launch overhead dominates there).
    max_key:
        Upper bound on the keys (exclusive); defaults to ``keys.max()+1``.

    Returns
    -------
    np.ndarray
        ``(n,)`` int64 permutation: ``keys[perm]`` is sorted and equal keys
        keep their input order.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ParseError("radix sort expects a 1-D key array")
    n = keys.size
    perm = np.arange(n, dtype=np.int64)
    if n == 0:
        return perm
    if keys.min() < 0:
        raise ParseError("radix sort requires non-negative keys")
    if radix_bits <= 0 or radix_bits > 16:
        raise ParseError("radix_bits must be in 1..16")
    if max_key is None:
        max_key = int(keys.max()) + 1
    key_bits = max(1, int(max_key - 1).bit_length())
    radix = 1 << radix_bits
    # The keys travel with the permutation (permuted in place each pass)
    # so no pass re-gathers them from the source array.
    current_keys = keys.astype(np.int64)

    shift = 0
    while shift < key_bits:  # parlint: disable=PPR401 -- one pass per radix digit, <= key_bits/radix_bits iterations
        digits = (current_keys >> shift) & (radix - 1)
        # (1) histogram, (2) partition offsets via exclusive prefix sum.
        histogram = np.bincount(digits, minlength=radix)
        offsets = exclusive_sum(histogram)
        # (3) stable placement: a digit value's positions in input order
        # (np.flatnonzero) are exactly its items in stable rank order, so
        # writing them at the partition offset performs the
        # offset[d] + rank-within-d scatter without materialising the
        # per-digit prefix sum.
        gather = np.empty(n, dtype=np.int64)
        for value in range(radix):  # parlint: disable=PPR401 -- 2**radix_bits iterations with vectorised bodies (per-digit stable ranking)
            count = int(histogram[value])
            if count == 0:
                continue
            lo = int(offsets[value])
            gather[lo:lo + count] = np.flatnonzero(digits == value)
        perm = perm[gather]
        current_keys = current_keys[gather]
        shift += radix_bits
    return perm


def partition_by_column(data: np.ndarray, keep_mask: np.ndarray,
                        column_ids: np.ndarray, record_ids: np.ndarray,
                        num_columns: int,
                        radix_bits: int = 2) -> PartitionResult:
    """Partition the retained symbols into per-column CSSs (radix sort).

    Parameters
    ----------
    data:
        ``(n,)`` uint8 raw input (symbols).
    keep_mask:
        ``(n,)`` bool — which positions enter the partition (data symbols
        of selected columns/records; for the inline/delimited tagging modes
        also the terminating delimiters).
    column_ids / record_ids:
        Per-position tags from phase 2.
    num_columns:
        Column count (CSS boundaries are produced for all of them).
    radix_bits:
        Digit width for the radix sort.
    """
    if not (data.shape == keep_mask.shape == column_ids.shape
            == record_ids.shape):
        raise ParseError("partition inputs must share one shape")
    kept = np.flatnonzero(keep_mask)
    keys = column_ids[kept]
    if keys.size and int(keys.max()) >= num_columns:
        raise ParseError("a column tag exceeds the declared column count")
    perm = stable_radix_sort(keys, radix_bits=radix_bits,
                             max_key=num_columns)
    order = kept[perm]
    css = data[order]
    record_tags = record_ids[order]
    histogram = np.bincount(keys, minlength=num_columns)
    column_offsets = np.empty(num_columns + 1, dtype=np.int64)
    column_offsets[0] = 0
    np.cumsum(histogram, out=column_offsets[1:])
    return PartitionResult(css=css, record_tags=record_tags,
                           column_offsets=column_offsets,
                           num_columns=num_columns, order=order)
