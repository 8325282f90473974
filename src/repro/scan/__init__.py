"""Parallel prefix-scan substrate.

The prefix scan is the fundamental building block of ParPaRaw (paper §2):
the parsing-context step scans state-transition vectors under
*composition*, and the tagging and partition steps scan counts.

:mod:`repro.scan.numpy_scan` holds the vectorised NumPy scans the
pipeline runs, an array lane standing for a GPU thread.  The scan
operators as monoids, the classic scan algorithms the paper's related
work cites (Hillis–Steele, Blelloch, the Merrill–Garland single-pass scan
with decoupled look-back) and the rel/abs column-offset scan of §3.2 are
reference code in :mod:`repro.reference.scan`.
"""

from repro.scan.numpy_scan import exclusive_sum, inclusive_sum

__all__ = ["exclusive_sum", "inclusive_sum"]
