"""Input probing for the planner: cheap statistics from a bounded sample.

The planner never looks at the whole input — :func:`probe_input` parses a
bounded leading sample (64 KiB by default) with the configured dialect,
cross-checks the dialect against :func:`repro.dfa.sniffer.sniff_dialect`,
and condenses what it saw into an :class:`InputStats`: record length,
column count and the numeric-field fraction.

Workload *fingerprints* (:func:`workload_fingerprint`) bucket the stats
coarsely — delimiter, quoting, column count, log2 record length, quartile
numeric fraction — so observations from one run calibrate every later
run of the same workload shape, regardless of input size or executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.options import ParseOptions
from repro.dfa.dialects import Dialect
from repro.errors import DialectError, ParseError

__all__ = ["InputStats", "probe_input", "workload_fingerprint",
           "DEFAULT_SAMPLE_BYTES"]

#: Leading bytes the probe parses.  Large enough for stable density
#: estimates on any sane record length, small enough that probing costs
#: a few milliseconds against partitions hundreds of times larger.
DEFAULT_SAMPLE_BYTES = 64 * 1024


def workload_fingerprint(dialect: Dialect, num_columns: int,
                         avg_record_bytes: float,
                         numeric_fraction: float) -> str:
    """A coarse, stable key identifying a workload *shape*.

    Buckets deliberately: record length by power of two, numeric fraction
    by quartile — so the 1 MB probe and the 512 MB production run of the
    same dataset share a calibration entry, while yelp-shaped and
    taxi-shaped workloads do not.
    """
    delim = dialect.delimiter.decode("latin-1")
    quoted = "q" if dialect.quote else "-"
    rec_bucket = 1 << max(0, round(math.log2(max(1.0, avg_record_bytes))))
    num_bucket = round(max(0.0, min(1.0, numeric_fraction)) * 4) / 4
    return f"d{delim!r}{quoted}c{num_columns}r{rec_bucket}n{num_bucket}"


@dataclass(frozen=True)
class InputStats:
    """What one probe learned about an input (the planner's raw material)."""

    #: Full input size (not just the sample).
    input_bytes: int
    #: Bytes the probe actually parsed.
    sample_bytes: int
    #: The dialect the probe parsed with (the configured one — the
    #: sniffer's verdict is advisory, see ``sniffed_agrees``).
    dialect: Dialect
    #: ``False`` when the sniffer confidently preferred a *different*
    #: delimiter than the configured dialect (surfaced in the decision
    #: rationale; the configured dialect always wins).
    sniffed_agrees: bool
    num_columns: int
    records_sampled: int
    avg_record_bytes: float
    #: Fraction of columns needing numeric/temporal conversion.
    numeric_fraction: float

    def fingerprint(self) -> str:
        return workload_fingerprint(self.dialect, self.num_columns,
                                    self.avg_record_bytes,
                                    self.numeric_fraction)


def _as_bytes(data) -> bytes:
    if isinstance(data, np.ndarray):
        return data.tobytes()
    return bytes(data)


def probe_input(data, options: ParseOptions | None = None,
                sample_bytes: int = DEFAULT_SAMPLE_BYTES) -> InputStats:
    """One cheap pass over a bounded sample of ``data``.

    Parses the leading ``sample_bytes`` with the configured dialect and
    the caller's type settings (a configured schema prices its own
    numeric fraction; otherwise the caller's ``infer_types`` decides —
    an all-string parse has an all-string convert cost) and sniffs the
    sample as a cross-check.  Raises nothing for malformed tails: the
    probe runs lenient and unstrict.
    """
    options = options if options is not None else ParseOptions()
    total = len(data) if not isinstance(data, np.ndarray) else int(data.size)
    if total == 0:
        return InputStats(
            input_bytes=0, sample_bytes=0, dialect=options.dialect,
            sniffed_agrees=True, num_columns=1, records_sampled=0,
            avg_record_bytes=1.0, numeric_fraction=0.0)

    sample = _as_bytes(data[:sample_bytes])
    if total > len(sample):
        # Trim the trailing partial record so densities are not skewed.
        cut = sample.rfind(b"\n")
        if cut > 0:
            sample = sample[:cut + 1]

    sniffed_agrees = True
    if options.dfa is None:
        try:
            from repro.dfa.sniffer import sniff_dialect
            verdict = sniff_dialect(sample)
            sniffed_agrees = \
                verdict.dialect.delimiter == options.dialect.delimiter
        except DialectError:
            pass

    from repro.core.parser import parse_bytes
    # The probe must fingerprint the parse the caller will actually run:
    # Planner.observe derives the numeric fraction from the result's
    # schema, so the probe mirrors the caller's type settings (not a
    # forced inference) or the two halves of the loop would calibrate
    # disjoint fingerprints.
    probe_options = options.with_(
        plan=None, schema=None, select_columns=None,
        skip_rows=frozenset(), skip_records=frozenset(), strict=False)
    from repro.columnar.schema import DataType
    try:
        result = parse_bytes(sample, probe_options)
        rows = result.num_rows
        columns = max(1, result.table.num_columns)
        if options.schema is not None:
            numeric = sum(1 for f in options.schema
                          if f.dtype is not DataType.STRING)
            numeric_fraction = numeric / max(1, len(options.schema))
        else:
            numeric = sum(1 for f in result.table.schema
                          if f.dtype is not DataType.STRING)
            numeric_fraction = numeric / columns
    except ParseError:
        # Unparseable sample: fall back to newline counting so the
        # planner still gets an order-of-magnitude record length.
        rows = sample.count(b"\n")
        columns, numeric_fraction = 1, 0.0

    avg_record = len(sample) / rows if rows else float(len(sample))
    return InputStats(
        input_bytes=total, sample_bytes=len(sample),
        dialect=options.dialect, sniffed_agrees=sniffed_agrees,
        num_columns=columns, records_sampled=rows,
        avg_record_bytes=avg_record, numeric_fraction=numeric_fraction)
