"""Tagging-mode mechanics (paper §4.1, Figure 6).

The three CSS layouts trade robustness against memory traffic:

* **record-tagged** — partition only data symbols; every CSS symbol
  carries its 4-byte record tag; the CSS index comes from run-length
  encoding the tags.  Handles varying column counts.
* **inline-terminated** — partition data symbols *and* the delimiters
  terminating each field, then overwrite the delimiter bytes with a
  reserved terminator inside the CSS; the index is the terminator
  positions.  No per-symbol tags, but the terminator byte must not occur
  in data and the column count must be constant.
* **vector-delimited** — like inline, but field ends are marked in an
  auxiliary boolean vector instead of a reserved byte (1 bit/symbol).

This module owns the mode-specific steps the parser composes: building the
partition keep-mask, post-processing the CSS (terminator substitution /
auxiliary vector extraction), and per-column index construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.css import ColumnIndex, delimited_index, inline_index
from repro.core.options import ParseOptions, TaggingMode
from repro.core.partition import PartitionResult
from repro.errors import ParseError

__all__ = ["build_keep_mask", "prepare_css", "column_indexes"]


def build_keep_mask(mode: TaggingMode, data_mask: np.ndarray,
                    delim_mask: np.ndarray | None,
                    symbol_ok: np.ndarray | None) -> np.ndarray:
    """Positions entering the partition under the given mode.

    Record-tagged keeps data symbols only; the inline/delimited modes also
    keep each field's terminating delimiter (it becomes the terminator /
    auxiliary mark).  ``symbol_ok`` masks out unselected columns and
    dropped records; ``None`` keeps them all.
    """
    keep = data_mask if mode is TaggingMode.TAGGED \
        else data_mask | delim_mask
    return keep if symbol_ok is None else keep & symbol_ok


def prepare_css(mode: TaggingMode, part: PartitionResult,
                delim_mask: np.ndarray | None, options: ParseOptions
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Mode-specific CSS post-processing after the partition.

    Returns ``(css, aux_delims)`` where ``aux_delims`` marks the CSS
    positions holding field terminators — gathered through the
    partition's ``order`` only in the two non-tagged modes that read it
    (``None`` for record-tagged).

    For the inline mode this performs the §4.1 substitution — delimiters
    become the reserved terminator byte — and verifies the terminator does
    not occur in field data (the documented precondition; use the
    vector-delimited mode otherwise).
    """
    css = part.css
    aux_delims = None if mode is TaggingMode.TAGGED \
        else delim_mask[part.order]
    if mode is TaggingMode.INLINE:
        if bool(np.any(css[~aux_delims] == options.inline_terminator)):
            raise ParseError(
                "inline terminator byte occurs in field data; use "
                "TaggingMode.DELIMITED or a different terminator")
        css = css.copy()
        css[aux_delims] = options.inline_terminator
    return css, aux_delims


def column_indexes(mode: TaggingMode, part: PartitionResult,
                   css: np.ndarray, aux_delims: np.ndarray | None,
                   options: ParseOptions) -> list[ColumnIndex]:
    """Per-column CSS field indexes for the configured mode.

    Record-tagged: every sorted field run of the partition is one field,
    so the index is read straight off its field geometry
    (:meth:`~repro.core.partition.PartitionResult.column_fields`) —
    bit-identical to the per-symbol RLE of
    :func:`~repro.core.css.tagged_index`, without touching the CSS
    symbols again.
    """
    indexes = []
    for column in range(part.num_columns):
        if mode is TaggingMode.TAGGED:
            records, offsets, lengths = part.column_fields(column)
            indexes.append(ColumnIndex(records=records, offsets=offsets,
                                       lengths=lengths))
            continue
        lo = int(part.column_offsets[column])
        hi = int(part.column_offsets[column + 1])
        if mode is TaggingMode.INLINE:
            indexes.append(inline_index(css[lo:hi],
                                        options.inline_terminator))
        else:
            indexes.append(delimited_index(aux_delims[lo:hi]))
    return indexes
