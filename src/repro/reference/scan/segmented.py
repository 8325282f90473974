"""Segmented prefix scan.

A segmented scan restarts the accumulation at segment boundaries, given a
head-flag array.  ParPaRaw uses the segmented formulation implicitly when
assigning column indexes within each record (the column counter resets at
every record delimiter) and when run-length encoding record-tags for CSS
index generation.  The segmented scan is also the textbook reduction of both
problems to the ordinary scan: pair each value with its head flag and scan
under the *segmented* operator, which is associative whenever the underlying
operator is.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.reference.scan.operators import Monoid

T = TypeVar("T")

__all__ = ["segmented_inclusive_scan", "SegmentedMonoid"]


class SegmentedMonoid:
    """Lift a monoid to (flag, value) pairs with segment-reset semantics.

    ``(fa, a) ⊕ (fb, b) = (fa | fb, b)`` if ``fb`` (right operand starts a
    new segment, discarding the left prefix), else ``(fa, a ⊕ b)``.

    This is the standard construction showing segmented scans are ordinary
    scans over a derived monoid; its associativity is property tested.
    """

    def __init__(self, inner: Monoid[T]):
        self.inner = inner

    def combine(self, left: tuple[bool, T],
                right: tuple[bool, T]) -> tuple[bool, T]:
        flag_l, value_l = left
        flag_r, value_r = right
        if flag_r:
            return (True, value_r)
        return (flag_l or flag_r, self.inner.combine(value_l, value_r))

    def identity(self) -> tuple[bool, T]:
        return (False, self.inner.identity())


def segmented_inclusive_scan(items: Sequence[T], head_flags: Sequence[bool],
                             monoid: Monoid[T]) -> list[T]:
    """Inclusive scan restarting at positions whose head flag is set.

    >>> from repro.reference.scan.operators import SumMonoid
    >>> segmented_inclusive_scan([1, 1, 1, 1, 1],
    ...                          [True, False, True, False, False],
    ...                          SumMonoid())
    [1, 2, 1, 2, 3]
    """
    if len(items) != len(head_flags):
        raise ValueError("items and head_flags must have equal length")
    lifted = SegmentedMonoid(monoid)
    acc = lifted.identity()
    out: list[T] = []
    for flag, value in zip(head_flags, items):
        acc = lifted.combine(acc, (bool(flag), value))
        out.append(acc[1])
    return out
