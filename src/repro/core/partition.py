"""Phase 3a — partitioning symbols by column (paper §3.3).

To convert fields without thread divergence and without load-balancing
hazards, ParPaRaw first brings all symbols of each column together.

The pipeline runs the **field-run partition** (:func:`partition_field_runs`),
the vectorised-executor formulation.  Phase 2 hands over its tags per
delimiter segment, so the partition works in segment space: each
segment's retained symbols form one run, the *runs* are radix-sorted by
column id (``num_fields ≪ n`` keys), and the CSS is gathered block by
block from the compacted retained symbols.

The paper's GPU formulation, a stable LSD radix sort of every retained
symbol by its column tag (histogram, exclusive prefix sum over it, stable
placement at ``offset[digit] + rank-within-digit``), is
:func:`repro.reference.core.partition.partition_by_column`.  The field-run
partition is bit-identical to it, which the parity suite in
``tests/core/test_partition.py`` and the pipeline-level sweep in
``tests/core/test_partition_parity.py`` enforce.
"""

from __future__ import annotations

# parlint: hot-path -- byte-bound pipeline phase; loops need waivers

import numpy as np

from repro.columnar.guard import protect
from repro.core.tagging import segment_lengths
from repro.errors import ParseError
from repro.scan.numpy_scan import exclusive_sum

__all__ = ["PartitionResult", "partition_field_runs"]


class PartitionResult:
    """The columnar symbol layout after partitioning.

    Attributes
    ----------
    css:
        All retained symbols, column-partitioned: column ``c``'s CSS is
        ``css[column_offsets[c]:column_offsets[c + 1]]``.
    column_offsets:
        ``(num_columns + 1,)`` int64 CSS boundaries (from the histogram).
    num_columns:
        Number of columns partitioned.
    record_tags:
        Record tag of each CSS symbol (same layout).  The radix sort
        builds it; the field-run strategy derives it from the field
        geometry on first access.
    order:
        Original input position of each CSS symbol (the applied stable
        permutation) — lets callers gather any per-position payload into
        CSS layout (the inline/delimited modes gather the delimiter mask).
        Built by the radix sort, derived on first access on the field-run
        path, and ``None`` when neither applies.
    num_field_runs:
        Diagnostic metadata: how many contiguous field runs the field-run
        strategy gathered (``None`` on the radix path, which never counts
        them).  Excluded from the strategies' bit-identity contract,
        which covers ``css``/``record_tags``/``column_offsets``/``order``.
    field_records / field_starts / field_lengths / field_bounds:
        Per-field geometry read directly off the sorted runs, present
        only on the field-run path (where one run is exactly one
        non-empty field), in the segment arrays' index width except the
        int64 ``field_bounds``.  Sorted-run ``j`` is a field starting at
        CSS position ``field_starts[j]`` with ``field_lengths[j]``
        symbols of record ``field_records[j]``; column ``c``'s fields
        are the slice ``[field_bounds[c], field_bounds[c + 1])``.  This is the fused
        partition→convert handoff: the convert stage reads each column's
        index from here instead of re-deriving it with a per-symbol RLE,
        and a column's CSS *is* already an Arrow string column
        (:meth:`column_view`).
    field_sources / keep:
        Where sorted-run ``j`` starts among the retained symbols, and the
        keep mask that selected them: what :attr:`order` is derived from.
    """

    def __init__(self, css: np.ndarray, column_offsets: np.ndarray,
                 num_columns: int, *, record_tags: np.ndarray | None = None,
                 order: np.ndarray | None = None,
                 num_field_runs: int | None = None,
                 field_records: np.ndarray | None = None,
                 field_starts: np.ndarray | None = None,
                 field_lengths: np.ndarray | None = None,
                 field_bounds: np.ndarray | None = None,
                 field_sources: np.ndarray | None = None,
                 keep: np.ndarray | None = None):
        self.css = css
        self.column_offsets = column_offsets
        self.num_columns = num_columns
        self._record_tags = record_tags
        self._order = order
        self.num_field_runs = num_field_runs
        self.field_records = field_records
        self.field_starts = field_starts
        self.field_lengths = field_lengths
        self.field_bounds = field_bounds
        self.field_sources = field_sources
        self.keep = keep

    @property
    def record_tags(self) -> np.ndarray | None:
        if self._record_tags is None and self.field_records is not None:
            self._record_tags = np.repeat(self.field_records,
                                          self.field_lengths)
        return self._record_tags

    @property
    def order(self) -> np.ndarray | None:
        if self._order is None and self.keep is not None:
            self._order = _run_gather(
                np.flatnonzero(self.keep), self.field_starts,
                self.field_lengths, self.field_sources - self.field_starts)
        return self._order

    def column_css(self, column: int) -> np.ndarray:
        # parlint: returns-borrowed -- zero-copy slice of the shared CSS
        """Column ``c``'s concatenated symbol string."""
        lo = int(self.column_offsets[column])
        hi = int(self.column_offsets[column + 1])
        # Views of a read-only array are read-only, so protecting here
        # also covers column_view's values (it slices this result).
        return protect(self.css[lo:hi])

    def column_record_tags(self, column: int) -> np.ndarray:
        lo = int(self.column_offsets[column])
        hi = int(self.column_offsets[column + 1])
        return self.record_tags[lo:hi]

    def column_fields(self, column: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column ``c``'s ``(records, offsets, lengths)`` field geometry.

        Offsets are relative to :meth:`column_css`.  Requires the
        field geometry of :func:`partition_field_runs`; a radix-sort
        partition has none (its index is the RLE of the record tags,
        :func:`~repro.core.css.tagged_index`).
        """
        if self.field_bounds is None:
            raise ParseError("partition carries no field geometry")
        assert self.field_records is not None
        assert self.field_starts is not None
        assert self.field_lengths is not None
        lo = int(self.field_bounds[column])
        hi = int(self.field_bounds[column + 1])
        base = int(self.column_offsets[column])
        return (self.field_records[lo:hi],
                self.field_starts[lo:hi] - base,
                self.field_lengths[lo:hi])

    def column_view(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        # parlint: returns-borrowed -- values aliases self.css by design
        """Column ``c``'s CSS as an Arrow-style ``(values, offsets)`` pair.

        ``values`` is a zero-copy view of :attr:`css`; ``offsets`` is the
        ``(num_fields + 1,)`` int64 field-boundary buffer.  In the
        record-tagged mode the fields tile the column CSS exactly, so the
        pair *is* a valid Arrow string column over the retained fields —
        no symbol is copied.  Requires :meth:`column_fields`' field
        geometry.
        """
        values = self.column_css(column)
        _, starts, lengths = self.column_fields(column)
        offsets = np.empty(starts.size + 1, dtype=np.int64)
        offsets[:-1] = starts
        offsets[-1] = (int(starts[-1] + lengths[-1]) if starts.size
                       else 0)
        return values, offsets


#: Output symbols per gather block of the field-run partition.
GATHER_BLOCK = 1 << 16


def _run_gather(source: np.ndarray, starts: np.ndarray,
                lengths: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Run-wise permutation of ``source``, built one block at a time.

    Output run ``j`` holds ``lengths[j] > 0`` elements from position
    ``starts[j]`` (the runs tile the ``source.size`` outputs in order)
    and reads ``source[p + delta[j]]`` at each of its positions ``p``.
    The gather index exists for one :data:`GATHER_BLOCK` at a time.
    """
    out = np.empty_like(source)
    total = out.size
    if not total:
        return out
    lows = np.arange(0, total, GATHER_BLOCK, dtype=starts.dtype)
    highs = np.append(lows[1:], total)
    # One search (no dtype cast) finds each block's first and last run.
    spans = np.searchsorted(starts, np.stack([lows, highs - 1]),
                            side="right")
    steps = np.arange(GATHER_BLOCK, dtype=delta.dtype)
    for block in range(lows.size):  # parlint: disable=PPR401 -- ceil(n / GATHER_BLOCK) iterations, vectorised bodies
        lo, hi = int(lows[block]), int(highs[block])
        first, stop = int(spans[0, block]) - 1, int(spans[1, block])
        # Clip the runs straddling the block edges to the block.
        widths = lengths[first:stop].copy()
        widths[-1] = hi - starts[stop - 1]
        widths[0] -= lo - starts[first]
        index = np.repeat(delta[first:stop] + lo, widths)
        index += steps[:hi - lo]
        np.take(source, index, out=out[lo:hi])
    return out


def partition_field_runs(data: np.ndarray, keep_mask: np.ndarray,
                         delim_positions: np.ndarray,
                         segment_columns: np.ndarray,
                         segment_records: np.ndarray,
                         num_columns: int) -> PartitionResult:
    """Partition per-segment tags by sorting the runs, not the symbols.

    Bit-identical to the radix-sort oracle
    (:func:`repro.reference.core.partition.partition_by_column`) over
    the segment tags expanded per symbol (same CSS, record tags, offsets
    and stable ``order`` permutation, the last two derived on demand) in
    ``O(n + num_fields)``:

    1. count each segment's retained symbols (its length, less a dropped
       delimiter and the dropped symbols inside it); the non-empty
       segments are the runs, keyed by their segment's column tag;
    2. sort the *runs* by column id with a stable ``argsort`` of narrow
       unsigned keys (an LSD radix sort up to 16 bits);
    3. compact the retained symbols once (``data[keep_mask]``) and gather
       the CSS from them block by block (:func:`_run_gather`).  Besides
       a drop mask, these are the only per-symbol arrays; the run
       geometry keeps the segments' (tagging's) index width.

    Parameters
    ----------
    delim_positions:
        ``(m,)`` ascending segment boundaries: segment ``j`` runs from
        just after ``delim_positions[j - 1]`` up to and including
        ``delim_positions[j]``, the last one to the end of ``data``
        (:func:`~repro.core.tagging.segment_lengths`).
    segment_columns / segment_records:
        ``(m + 1,)`` column and record tag of every symbol of each
        segment — what phase 2 produces, in one index dtype.
    """
    if data.shape != keep_mask.shape \
            or segment_columns.shape != segment_records.shape \
            or segment_columns.size != delim_positions.size + 1:
        raise ParseError("partition inputs must share one shape")
    index = delim_positions.dtype
    counts = segment_lengths(delim_positions, data.size)
    counts[:-1] -= ~keep_mask[delim_positions]
    interior = ~keep_mask
    interior[delim_positions] = False
    interior = np.flatnonzero(interior)
    if interior.size:
        counts -= np.bincount(np.searchsorted(delim_positions, interior),
                              minlength=counts.size).astype(index)

    runs = np.flatnonzero(counts)
    run_lengths, run_keys = counts[runs], segment_columns[runs]
    if run_keys.size and int(run_keys.min()) < 0:
        raise ParseError("partition requires non-negative column tags")
    if run_keys.size and int(run_keys.max()) >= num_columns:
        raise ParseError("a column tag exceeds the declared column count")
    # Stable argsort of keys no wider than 16 bits is NumPy's LSD radix
    # sort: the paper's partition, over the runs instead of the symbols.
    run_keys = run_keys.astype(np.min_scalar_type(max(num_columns - 1, 0)))
    perm = np.argsort(run_keys, kind="stable").astype(index)
    field_bounds = exclusive_sum(np.bincount(run_keys,
                                             minlength=num_columns + 1))
    field_records = segment_records[runs][perm]
    del counts, interior, run_keys, runs

    sources = exclusive_sum(run_lengths, index)[perm]
    lengths = run_lengths[perm]
    del run_lengths, perm
    starts = exclusive_sum(lengths, index)
    css = _run_gather(data[keep_mask], starts, lengths, sources - starts)

    # CSS boundaries without a per-symbol histogram: column c's CSS
    # starts where its first sorted run starts.
    column_offsets = np.empty(num_columns + 1, dtype=np.int64)
    column_offsets[:-1] = np.append(starts, css.size)[field_bounds[:-1]]
    column_offsets[-1] = css.size
    # Every sorted run is exactly one non-empty field, so the run
    # geometry *is* the per-column field index.
    return PartitionResult(css=css, column_offsets=column_offsets,
                           num_columns=num_columns,
                           num_field_runs=int(lengths.size),
                           field_records=field_records,
                           field_starts=starts, field_lengths=lengths,
                           field_bounds=field_bounds,
                           field_sources=sources, keep=keep_mask)
