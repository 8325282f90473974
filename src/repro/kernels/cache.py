"""Process-wide LRU cache for precomposed strided DFA tables.

Building the k-step tables costs ``O(G^k · S)`` — negligible against a
large parse, but very noticeable when the same dialect is parsed over
and over: every streaming partition, every shard task and every parse
call would otherwise rebuild identical tables.  This cache keys tables
on ``(dfa fingerprint, k)`` so each distinct automaton pays the build
exactly once per process:

* the **serial** executor and :class:`~repro.streaming.StreamingParser`
  hit the parent process's cache from the second chunk/partition on;
* :class:`~repro.exec.ShardedExecutor` worker processes each hold their
  own copy (module state is per-process) — a worker builds the tables on
  its first shard and reuses them for every later shard and parse that
  the pool schedules onto it.

The fingerprint is *behavioural*: it hashes the canonical minimised form
(:func:`repro.dfa.minimize.canonicalize`) of the automaton, so not just
independently constructed but *structurally different yet behaviourally
equivalent* automata — a sniffer-built CSV DFA with redundant states vs
the :mod:`repro.dfa.dialects` builder's — map to the same fingerprint.
Canonical automata (which is what the pipeline always feeds through
here) share one entry per behaviour class; a non-canonical automaton
(a test sweeping the raw dialect DFA) still gets correct tables for its
own state numbering through a structural sub-key.

Cache traffic is observable through :mod:`repro.obs`: pass a
:class:`~repro.obs.metrics.MetricsRegistry` to :func:`get_tables` and it
records ``kernels.cache.hits`` / ``kernels.cache.misses`` counters and a
``kernels.table_build.seconds`` histogram (plus a ``kernels.table.bytes``
gauge for the most recent build).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict

from repro.dfa.automaton import Dfa
from repro.dfa.minimize import canonicalize
from repro.kernels.strided import KernelPlan, StridedTables, build_plan, \
    build_tables
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "dfa_fingerprint",
    "get_tables",
    "get_plan",
    "cache_info",
    "clear_cache",
    "MAX_CACHED_TABLES",
]

#: Entries kept before least-recently-used eviction.  Tables are small
#: (bounded by the stride budget) but a long-lived process cycling many
#: ad-hoc automata should not accumulate them forever.
MAX_CACHED_TABLES = 16

_lock = threading.Lock()
_cache: "OrderedDict[tuple, StridedTables]" = OrderedDict()
_hits = 0
_misses = 0
_evictions = 0


def _structural_fingerprint(dfa: Dfa) -> str:
    """Stable digest of everything that shapes the strided tables."""
    digest = hashlib.sha1()
    digest.update(b"%d:%d:%d:%d;" % (
        dfa.num_groups, dfa.num_states, dfa.start_state,
        -1 if dfa.invalid_state is None else dfa.invalid_state))
    digest.update(dfa.transitions.tobytes())
    digest.update(dfa.emissions.tobytes())
    return digest.hexdigest()


def dfa_fingerprint(dfa: Dfa) -> str:
    """Behavioural digest: the structural fingerprint of the canonical
    minimised form.

    Behaviourally equivalent automata — same byte-level transitions,
    emissions, acceptance and invalid detection, however their states
    and groups are numbered — share a fingerprint, so they share cached
    tables.  (The digest deliberately ignores ``symbol_groups``: two
    canonical automata differing only in *which bytes* map to each group
    — a comma vs a semicolon dialect — run the very same tables, since
    tables are indexed by group id, never by byte.)
    """
    return _structural_fingerprint(canonicalize(dfa).dfa)


def _table_key(dfa: Dfa, k: int) -> tuple:
    """Cache key for ``(dfa, k)``.

    Keyed behaviourally when the automaton's transition structure *is*
    its canonical form (the pipeline's only path, and any hand-built
    automaton that happens to be minimal) — those
    tables are interchangeable across every equivalent automaton with
    the same structure.  A non-canonical automaton gets a structural
    sub-key: its tables are indexed by *its* state numbering and must
    not be handed to a structurally different equivalent automaton.
    """
    canonical = canonicalize(dfa).dfa
    structural = _structural_fingerprint(dfa)
    behavioural = _structural_fingerprint(canonical)
    if structural == behavioural:
        return (behavioural, int(k))
    return (behavioural, structural, int(k))


def get_tables(dfa: Dfa, k: int,
               metrics: MetricsRegistry = NULL_METRICS) -> StridedTables:
    """The precomposed tables for ``(dfa, k)``, built at most once.

    Thread-safe; concurrent callers of the same key may race to build,
    in which case one result wins and the others are discarded (the
    tables are immutable and interchangeable, so this is merely a little
    duplicated work, never an inconsistency).
    """
    global _hits, _misses, _evictions
    key = _table_key(dfa, k)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            _hits += 1
            if metrics.enabled:
                metrics.count("kernels.cache.hits")
            return cached
    start = time.perf_counter()
    tables = build_tables(dfa, k)
    build_seconds = time.perf_counter() - start
    with _lock:
        _misses += 1
        _cache[key] = tables
        _cache.move_to_end(key)
        while len(_cache) > MAX_CACHED_TABLES:
            _cache.popitem(last=False)
            _evictions += 1
    if metrics.enabled:
        metrics.count("kernels.cache.misses")
        metrics.observe("kernels.table_build.seconds", build_seconds)
        metrics.gauge("kernels.table.bytes", tables.nbytes)
    return tables


def get_plan(dfa: Dfa, k: int, chunk_size: int,
             metrics: MetricsRegistry = NULL_METRICS) -> KernelPlan:
    """The mixed-stride :class:`~repro.kernels.strided.KernelPlan` for
    ``(dfa, k, chunk_size)``, its per-stride tables served from (and
    shared through) this cache.

    The plan object itself is cheap (a tuple of segment offsets); only
    the tables matter, and those are cached per ``(dfa, stride)`` — so a
    k=8 parse at chunk size 31 and one at chunk size 63 share every
    table even though their segment decompositions differ.
    """
    return build_plan(dfa, k, int(chunk_size),
                      table_source=lambda d, stride:
                      get_tables(d, stride, metrics))


def cache_info() -> dict[str, int]:
    """Lifetime cache statistics of this process."""
    with _lock:
        return {
            "entries": len(_cache),
            "hits": _hits,
            "misses": _misses,
            "evictions": _evictions,
        }


def clear_cache() -> None:
    """Drop all cached tables and reset the statistics (tests)."""
    global _hits, _misses, _evictions
    with _lock:
        _cache.clear()
        _hits = _misses = _evictions = 0
