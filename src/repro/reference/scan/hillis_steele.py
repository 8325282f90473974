"""Hillis–Steele step-efficient parallel scan.

The classic data-parallel scan of Hillis & Steele (1986), cited in paper §2.
It performs ``ceil(log2 n)`` sweeps; in sweep ``d`` every element ``i >= 2^d``
combines the value at distance ``2^d`` to its left into itself.  The
algorithm is *step*-efficient (log n steps) but not *work*-efficient
(O(n log n) operations) — the trade-off the Blelloch scan addresses.

This implementation models the parallel sweeps explicitly (reading from the
previous generation, writing a new one) so tests can assert the exact
parallel semantics rather than accidentally relying on left-to-right
execution order.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.reference.scan.operators import Monoid

T = TypeVar("T")

__all__ = ["hillis_steele_scan"]


def hillis_steele_scan(items: Sequence[T], monoid: Monoid[T],
                       exclusive: bool = False) -> list[T]:
    """Scan ``items`` with log-step parallel sweeps.

    Parameters
    ----------
    items:
        Input sequence.
    monoid:
        Associative operator with identity.
    exclusive:
        If true, return the exclusive scan (shift right, seed identity).

    Returns
    -------
    list
        The scanned values, same length as the input.
    """
    n = len(items)
    if n == 0:
        return []
    current = list(items)
    offset = 1
    while offset < n:
        # One parallel sweep: all combines in this generation read `current`
        # (the previous generation) and write `nxt`, mirroring the
        # double-buffered GPU formulation.
        nxt = list(current)
        for i in range(offset, n):
            nxt[i] = monoid.combine(current[i - offset], current[i])
        current = nxt
        offset *= 2
    if exclusive:
        return [monoid.identity()] + current[:-1]
    return current
