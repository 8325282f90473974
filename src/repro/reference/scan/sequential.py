"""Reference sequential prefix scans.

These are the ground-truth implementations the parallel scan algorithms are
tested against.  They make the scan semantics explicit: for an input
``x_0 … x_{n-1}`` and operator ``⊕``, the inclusive scan output is
``y_i = x_0 ⊕ x_1 ⊕ … ⊕ x_i`` and the exclusive scan output is
``y_i = e ⊕ x_0 ⊕ … ⊕ x_{i-1}`` (seeded with the identity ``e``), matching
the definition in paper §2.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.reference.scan.operators import Monoid

T = TypeVar("T")

__all__ = ["inclusive_scan", "exclusive_scan", "reduce"]


def inclusive_scan(items: Sequence[T], monoid: Monoid[T]) -> list[T]:
    """Inclusive left-to-right scan of ``items`` under ``monoid``.

    >>> from repro.reference.scan.operators import SumMonoid
    >>> inclusive_scan([3, 5, 1, 2], SumMonoid())
    [3, 8, 9, 11]
    """
    out: list[T] = []
    acc = monoid.identity()
    for item in items:
        acc = monoid.combine(acc, item)
        out.append(acc)
    return out


def exclusive_scan(items: Sequence[T], monoid: Monoid[T]) -> list[T]:
    """Exclusive left-to-right scan: output ``i`` excludes input ``i``.

    >>> from repro.reference.scan.operators import SumMonoid
    >>> exclusive_scan([3, 5, 1, 2], SumMonoid())
    [0, 3, 8, 9]
    """
    out: list[T] = []
    acc = monoid.identity()
    for item in items:
        out.append(acc)
        acc = monoid.combine(acc, item)
    return out


def reduce(items: Sequence[T], monoid: Monoid[T]) -> T:
    """Fold ``items`` into a single value under ``monoid``.

    Returns the identity for an empty sequence.
    """
    acc = monoid.identity()
    for item in items:
        acc = monoid.combine(acc, item)
    return acc
