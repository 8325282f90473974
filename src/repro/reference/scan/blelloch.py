"""Blelloch work-efficient parallel scan (up-sweep / down-sweep).

Blelloch (1989), cited in paper §2, reduced the scan to O(n) work using two
tree traversals over a conceptually padded power-of-two array:

* **up-sweep (reduce)** — build partial sums up the tree;
* **down-sweep** — seed the root with the identity and push prefixes down,
  at each node handing its left child's partial sum combined with the
  incoming prefix to its right child.

The natural output is the *exclusive* scan; the inclusive scan is recovered
by combining each input into its exclusive prefix.

Correct operation with *non-commutative* operators (state-transition vector
composition!) requires the combine order to be exactly
``left-subtree ⊕ right-subtree`` throughout — this implementation preserves
that order and the tests verify it against the sequential reference with the
composition monoid.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.reference.scan.operators import Monoid
from repro.reference.utils.bits import next_power_of_two

T = TypeVar("T")

__all__ = ["blelloch_scan"]


def blelloch_scan(items: Sequence[T], monoid: Monoid[T],
                  exclusive: bool = True) -> list[T]:
    """Work-efficient scan of ``items`` under ``monoid``.

    Parameters
    ----------
    items:
        Input sequence.
    monoid:
        Associative operator with identity; need not be commutative.
    exclusive:
        If true (default — the algorithm's natural form) return the
        exclusive scan, else the inclusive scan.

    Returns
    -------
    list
        Scanned values, same length as input.
    """
    n = len(items)
    if n == 0:
        return []
    size = next_power_of_two(n)
    tree = list(items) + [monoid.identity()] * (size - n)

    # Up-sweep: after the pass with stride `d`, tree[k] for k ≡ d-1 (mod d)
    # holds the reduction of the d-wide block ending at k.
    stride = 1
    while stride < size:
        for right in range(2 * stride - 1, size, 2 * stride):
            left = right - stride
            tree[right] = monoid.combine(tree[left], tree[right])
        stride *= 2

    # Down-sweep: the root becomes the identity; walking down, each node
    # passes its incoming prefix to the left child and (prefix ⊕ left-sum)
    # to the right child.
    tree[size - 1] = monoid.identity()
    stride = size // 2
    while stride >= 1:
        for right in range(2 * stride - 1, size, 2 * stride):
            left = right - stride
            left_sum = tree[left]
            tree[left] = tree[right]
            tree[right] = monoid.combine(tree[right], left_sum)
        stride //= 2

    result = tree[:n]
    if exclusive:
        return result
    return [monoid.combine(result[i], items[i]) for i in range(n)]
