"""Vectorised scans used by the production pipeline.

An array lane corresponds to a GPU thread.  :func:`exclusive_sum` and
:func:`inclusive_sum` are the plain prefix sums; :func:`entering_states`
scans an ``(n_chunks, |S|)`` array of state-transition vectors under
composition — paper §3.1 — reduce-then-walk: ``O(n·|S|)`` work to reduce
blocks of chunks, a walk over the block composites and an ``O(n)`` carry
per start state, the shape of the paper's single-pass GPU scan.

The scalar scan algorithms and the vectorised scans only tests use
(the full STV scan, the rel/abs column-offset scan of §3.2) live in
:mod:`repro.reference.scan`.
"""

from __future__ import annotations

# parlint: hot-path -- production scans; loops need waivers

import numpy as np

__all__ = [
    "exclusive_sum",
    "inclusive_sum",
    "entering_states",
    "scan_depth",
]

#: Chunks per lane of :func:`entering_states`.  64-256 measure alike over
#: the ~270k chunks of an 8 MiB input: a longer lane shortens the walk,
#: a shorter one the two lane sweeps.
_BLOCK = 128


def inclusive_sum(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum as int64 (overflow-safe for byte offsets)."""
    return np.cumsum(values, dtype=np.int64)


def exclusive_sum(values: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Exclusive prefix sum, int64 by default: output[i] = sum(values[:i]).

    >>> exclusive_sum(np.array([3, 5, 1, 2])).tolist()
    [0, 3, 8, 9]
    """
    out = np.empty(len(values), dtype=dtype)
    if len(values) == 0:
        return out
    np.cumsum(values[:-1], dtype=dtype, out=out[1:])
    out[0] = 0
    return out


def entering_states(vectors: np.ndarray, states) -> np.ndarray:
    """States entering every chunk, for each of ``m`` start states.

    Row ``c`` of the ``(n + 1, m)`` result holds, for each entry of
    ``states``, the state the sequential automaton is in when it enters
    chunk ``c``, had the input started in that state; row ``n`` holds the
    state after the last chunk.  This is the exclusive composition scan
    of the STVs (paper §3.1) evaluated at ``states``, computed
    reduce-then-walk.  Lane ``b`` owns the ``_BLOCK`` chunks of block
    ``b`` (the ragged tail is padded with identity rows), like a GPU
    thread owning its items in the paper's single-pass scan:

    1. every lane composes its chunk vectors into the block composite,
       all lanes at once: ``O(n·S)`` work;
    2. a walk over the ``⌈n/_BLOCK⌉`` composites from ``states`` gives
       every block's entering states;
    3. every lane carries its entering states through its chunks, all
       lanes at once: ``O(n·m)`` work.

    Parameters
    ----------
    vectors:
        ``(n, S)`` integer array; row ``c`` maps start state ``i`` to the
        end state after chunk ``c``.
    states:
        ``(m,)`` start states.

    Returns
    -------
    np.ndarray
        ``(n + 1, m)`` array of ``vectors``' dtype.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError("expected an (n_chunks, num_states) array")
    n, num_states = vectors.shape
    dtype = vectors.dtype
    states = np.asarray(states, dtype=dtype).reshape(-1)
    if n == 0:
        return states[None, :].copy()
    lanes = -(-n // _BLOCK)
    padded = np.empty((lanes * _BLOCK, num_states), dtype=dtype)
    padded[:n] = vectors
    padded[n:] = np.arange(num_states, dtype=dtype)

    identity = np.broadcast_to(np.arange(num_states, dtype=dtype),
                               (lanes, num_states))
    composites = _sweep_lanes(padded, identity)

    walk = [states.tolist()]
    for composite in composites.tolist():  # parlint: disable=PPR401 -- ceil(n/_BLOCK)-step serial walk over block composites
        walk.append([composite[s] for s in walk[-1]])

    rows = np.empty((lanes * _BLOCK + 1, states.size), dtype=dtype)
    _sweep_lanes(padded, np.array(walk[:-1], dtype=dtype),
                 rows[:-1].reshape(lanes, _BLOCK, states.size))
    rows[-1] = walk[-1]
    return rows[:n + 1]


def _sweep_lanes(padded: np.ndarray, current: np.ndarray,
                 carried: np.ndarray | None = None) -> np.ndarray:
    """Advance each lane's ``(lanes, m)`` states through its chunks.

    ``padded`` holds the lanes' ``_BLOCK`` chunk vectors back to back.
    Returns the states after each lane's last chunk; ``carried[:, j]``,
    if given, receives the states entering each lane's chunk ``j``.
    """
    num_states = padded.shape[1]
    flat = padded.reshape(-1)
    offsets = np.arange(len(current), dtype=np.intp)[:, None] \
        * (_BLOCK * num_states)
    for j in range(_BLOCK):  # parlint: disable=PPR401 -- _BLOCK-step serial depth per lane, vectorised over lanes x states
        if carried is not None:
            carried[:, j] = current
        current = flat[offsets + current]
        offsets += num_states
    return current


def scan_depth(num_chunks: int) -> int:
    """Sequential depth of :func:`entering_states` over ``num_chunks``.

    ``_BLOCK`` reduce steps, ``⌈n/_BLOCK⌉`` walk steps and ``_BLOCK``
    carry steps; zero for no chunks.
    """
    if num_chunks == 0:
        return 0
    return 2 * _BLOCK + -(-num_chunks // _BLOCK)
