"""DFA minimisation, canonical forms, and dialect equivalence.

Table size is what caps the strided kernels: the precomposed k-gram
tables of :mod:`repro.kernels` cost ``G^k · S`` cells, so every state or
symbol group the automaton does not *need* multiplies the footprint of
every stride.  This module computes the coarsest behaviour-preserving
quotient of a :class:`~repro.dfa.automaton.Dfa` — Mealy-aware state
minimisation plus *group compaction* (byte groups with identical
transition and emission columns merge) — and renders it in a canonical
form, so that

* the pipeline can run every sweep on the smallest equivalent automaton
  (unlocking stride k=8 for small dialects, see ROADMAP item 3), and
* behaviourally equivalent automata — sniffer-built vs hand-built,
  however their states happen to be numbered — produce *bit-identical*
  canonical tables, which is what lets the kernel cache key tables
  behaviourally (:func:`repro.kernels.cache.dfa_fingerprint`).

The state partition comes from :func:`parallel_partition`, the
data-parallel formulation from the "Massively Parallel Algorithms for DFA
Minimisation" line of work (PAPERS.md): each round builds a per-state
signature of class labels and *densely relabels* it with a sort +
boundary-flag + prefix-scan pass
(:func:`repro.scan.numpy_scan.inclusive_sum`), exactly the scan-shaped
primitive the rest of the pipeline is built on.  Rounds are vectorised
over all states; at most ``S`` rounds reach the fixed point.  The
classic splitter-worklist refinement (Hopcroft's algorithm) is its test
oracle, :func:`repro.reference.dfa.minimize.hopcroft_partition`.

The refinement is Mealy-aware: the seed partition separates states by
their full emission row, their accepting flag, and whether they are the
INV sink, so the quotient preserves per-byte symbol classification,
end-of-input acceptance, and invalid-input detection bit for bit.

On top of the quotient, :func:`equivalent` / :func:`included` decide
byte-level behavioural equivalence and inclusion of two automata by
product-automaton refinement — the proof obligations of the parlint-style
``dfa-proofs`` tier (:mod:`repro.analysis.dfaproofs`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.dfa.automaton import Dfa, NUM_BYTE_VALUES
from repro.scan.numpy_scan import inclusive_sum

__all__ = [
    "Minimization",
    "parallel_partition",
    "minimize",
    "canonicalize",
    "structural_digest",
    "equivalent",
    "included",
    "MAX_CANONICAL_CACHE",
]


@dataclass(frozen=True)
class Minimization:
    """A DFA together with its canonical minimised form and the maps
    between the two state/group spaces.

    The canonical form is fully determined by the source automaton's
    *behaviour*: states are merged by Mealy-aware partition refinement,
    states unreachable from the start state are pruned, byte groups with
    identical transition+emission columns are merged, groups are ordered
    by the smallest byte value they claim (byteless groups — e.g. the
    synthetic PAD group — keep their relative order, after all
    byte-claiming groups), and states are renumbered breadth-first from
    the start state over that group order.  Behaviourally equivalent
    automata therefore canonicalise to bit-identical tables (up to the
    human-readable names), and :func:`canonicalize` is idempotent — a
    canonical form is its own canonical form.
    """

    #: The automaton that was minimised.
    source: Dfa
    #: The canonical minimised automaton (start state is always 0).
    dfa: Dfa
    #: ``(source.num_states,)`` int16 — canonical state of each source
    #: state; ``-1`` for states unreachable from the start state.
    state_map: np.ndarray
    #: ``(dfa.num_states,)`` int16 — smallest source state in each
    #: canonical state's class (maps sweep results back to source ids).
    state_rep: np.ndarray
    #: ``(source.num_groups,)`` int16 — canonical group of each source
    #: group.
    group_map: np.ndarray
    #: ``(dfa.num_groups,)`` int16 — smallest source group in each
    #: canonical group's class.
    group_rep: np.ndarray

    @property
    def states_merged(self) -> int:
        """Source states eliminated (merged or pruned as unreachable)."""
        return self.source.num_states - self.dfa.num_states

    @property
    def groups_merged(self) -> int:
        """Source symbol groups eliminated by column compaction."""
        return self.source.num_groups - self.dfa.num_groups


# -- partition refinement ----------------------------------------------------

def _dense_relabel(signatures: np.ndarray) -> np.ndarray:
    """Dense class ids (0..C-1) for the rows of ``signatures``.

    The scan-shaped relabelling at the heart of the data-parallel
    formulation: lexsort the rows, flag every boundary where a sorted
    row differs from its predecessor, prefix-scan the flags into class
    ids, and scatter them back through the sort permutation.  Equal rows
    get equal ids; ids are dense.
    """
    order = np.lexsort(signatures.T[::-1])
    sorted_rows = signatures[order]
    flags = np.zeros(len(signatures), dtype=np.int64)
    if len(signatures) > 1:
        flags[1:] = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
    labels = np.empty(len(signatures), dtype=np.int64)
    labels[order] = inclusive_sum(flags)
    return labels


def _seed_labels(dfa: Dfa) -> np.ndarray:
    """The Mealy-aware initial partition.

    States start in the same class iff they agree on the full emission
    row (per-symbol classification), the accepting flag (end-of-input
    acceptance), and INV-ness (the sink is always its own class, so
    ``invalid_position`` semantics survive the quotient).
    """
    accepting = np.zeros(dfa.num_states, dtype=np.int64)
    if dfa.accepting:
        accepting[sorted(dfa.accepting)] = 1
    invalid = np.zeros(dfa.num_states, dtype=np.int64)
    if dfa.invalid_state is not None:
        invalid[dfa.invalid_state] = 1
    signatures = np.column_stack([
        dfa.emissions.astype(np.int64), accepting, invalid])
    return _dense_relabel(signatures)


def parallel_partition(dfa: Dfa) -> np.ndarray:
    """Coarsest Mealy-consistent partition, data-parallel formulation.

    Each round builds, for every state, the signature ``(own class,
    class of the successor under every group)`` — one vectorised gather
    per group — and densely relabels it with the sort+scan pass of
    :func:`_dense_relabel`.  A round that creates no new class is the
    fixed point.  Returns ``(num_states,)`` dense class labels.
    """
    labels = _seed_labels(dfa)
    num_classes = int(labels.max()) + 1
    while True:  # parlint: disable=PPR401 -- <= num_states refinement rounds, each a vectorised relabel over all states
        signatures = np.concatenate(
            [labels[None, :], labels[dfa.transitions]], axis=0).T
        labels = _dense_relabel(signatures)
        refined = int(labels.max()) + 1
        if refined == num_classes:
            return labels
        num_classes = refined


# -- canonical construction --------------------------------------------------

def _canonical_from_labels(dfa: Dfa, labels: np.ndarray) -> Minimization:
    """Render a state partition as the canonical minimised automaton."""
    num_classes = int(labels.max()) + 1
    # Smallest source state of each class: the class representative.
    rep = np.full(num_classes, dfa.num_states, dtype=np.int64)
    np.minimum.at(rep, labels, np.arange(dfa.num_states))
    # Class-level transition table (well-defined: the partition is
    # transition-consistent) and emission table (consistent by the seed).
    class_trans = labels[dfa.transitions[:, rep]]        # (G, C)
    class_emis = dfa.emissions[rep, :]                   # (C, G)

    # Prune classes unreachable from the start class.
    start_class = int(labels[dfa.start_state])
    reachable = np.zeros(num_classes, dtype=bool)
    reachable[start_class] = True
    frontier = [start_class]
    while frontier:  # parlint: disable=PPR401 -- BFS over <= 32 state classes, configuration-time only
        for target in class_trans[:, frontier.pop()]:
            if not reachable[target]:
                reachable[target] = True
                frontier.append(int(target))
    kept = np.flatnonzero(reachable)

    # Group compaction: merge groups with identical transition+emission
    # columns over the surviving classes.
    merged_of: dict[tuple[bytes, bytes], int] = {}
    members: list[list[int]] = []
    group_merge = np.empty(dfa.num_groups, dtype=np.int64)
    for g in range(dfa.num_groups):  # parlint: disable=PPR401 -- one signature per symbol group (<= ~10), configuration-time only
        key = (class_trans[g, kept].tobytes(), class_emis[kept, g].tobytes())
        index = merged_of.setdefault(key, len(members))
        if index == len(members):
            members.append([g])
        else:
            members[index].append(g)
        group_merge[g] = index

    # Canonical group order: by the smallest byte value the merged group
    # claims; groups claiming no byte (synthetic, e.g. PAD) come last in
    # source order.  The order is intrinsic to the byte behaviour, so
    # equivalent automata agree on it.
    merged_bytes = group_merge[dfa.symbol_groups]
    def group_key(index: int) -> tuple[int, int]:
        claimed = np.flatnonzero(merged_bytes == index)
        if claimed.size:
            return (int(claimed[0]), 0)
        return (NUM_BYTE_VALUES, members[index][0])
    group_order = sorted(range(len(members)), key=group_key)
    canon_group = np.empty(len(members), dtype=np.int64)
    for new_g, merged_index in enumerate(group_order):
        canon_group[merged_index] = new_g
    group_map = canon_group[group_merge]
    lead_groups = [members[m][0] for m in group_order]

    # Canonical state order: BFS from the start class over the canonical
    # group order (start state is therefore always 0).
    state_order: list[int] = []
    placed = np.zeros(num_classes, dtype=bool)
    placed[start_class] = True
    queue: deque = deque([start_class])
    while queue:  # parlint: disable=PPR401 -- BFS over <= 32 state classes, configuration-time only
        cls = queue.popleft()
        state_order.append(cls)
        for g in lead_groups:
            target = int(class_trans[g, cls])
            if not placed[target]:
                placed[target] = True
                queue.append(target)
    canon_state = np.full(num_classes, -1, dtype=np.int64)
    for new_s, cls in enumerate(state_order):
        canon_state[cls] = new_s

    num_canon_states = len(state_order)
    num_canon_groups = len(members)
    transitions = np.empty((num_canon_groups, num_canon_states),
                           dtype=np.uint8)
    emissions = np.empty((num_canon_states, num_canon_groups),
                         dtype=np.uint8)
    for new_g, g in enumerate(lead_groups):  # parlint: disable=PPR401 -- canonical table assembly over <= ~10 groups, configuration-time only
        transitions[new_g] = canon_state[class_trans[g, state_order]]
        emissions[:, new_g] = class_emis[state_order, g]

    member_states: list[list[int]] = [[] for _ in range(num_classes)]
    for state in range(dfa.num_states):
        member_states[int(labels[state])].append(state)
    state_names = tuple(
        "+".join(dfa.state_names[s] for s in member_states[cls])
        for cls in state_order)
    group_names = tuple(
        "+".join(dfa.group_names[g] for g in members[m])
        for m in group_order)
    accepting = frozenset(
        new_s for new_s, cls in enumerate(state_order)
        if int(rep[cls]) in dfa.accepting)
    invalid_state = None
    if dfa.invalid_state is not None:
        invalid_class = int(labels[dfa.invalid_state])
        if reachable[invalid_class]:
            invalid_state = int(canon_state[invalid_class])

    canonical = Dfa(
        state_names=state_names,
        symbol_groups=group_map[dfa.symbol_groups].astype(np.uint8),
        group_names=group_names,
        transitions=transitions,
        emissions=emissions,
        start_state=0,
        accepting=accepting,
        invalid_state=invalid_state,
    )
    state_map = canon_state[labels].astype(np.int16)
    state_rep = rep[state_order].astype(np.int16)
    group_rep = np.array([members[m][0] for m in group_order],
                         dtype=np.int16)
    return Minimization(
        source=dfa,
        dfa=canonical,
        state_map=state_map,
        state_rep=state_rep,
        group_map=group_map.astype(np.int16),
        group_rep=group_rep,
    )


def minimize(dfa: Dfa) -> Minimization:
    """Minimise ``dfa`` into its canonical form (see :class:`Minimization`)
    with the data-parallel partition engine."""
    return _canonical_from_labels(dfa, parallel_partition(dfa))


# -- cached canonicalisation -------------------------------------------------

#: Canonicalisations kept per process before LRU eviction (one entry per
#: distinct automaton ever parsed; dialect automata are a handful).
MAX_CANONICAL_CACHE = 64

_canon_lock = threading.Lock()
_canon_cache: "OrderedDict[str, Minimization]" = OrderedDict()


def structural_digest(dfa: Dfa) -> str:
    """Digest of everything observable about ``dfa``, bit for bit."""
    digest = hashlib.sha1()
    digest.update(repr((dfa.state_names, dfa.group_names, dfa.start_state,
                        sorted(dfa.accepting),
                        dfa.invalid_state)).encode("utf-8"))
    digest.update(dfa.symbol_groups.tobytes())
    digest.update(dfa.transitions.tobytes())
    digest.update(dfa.emissions.tobytes())
    return digest.hexdigest()


def canonicalize(dfa: Dfa) -> Minimization:
    """The canonical minimisation of ``dfa``, computed once per process.

    Thread-safe LRU keyed on the full structural digest; the pipeline
    calls this per parse, so the refinement runs once per distinct
    automaton and every later parse pays one hash.
    """
    key = structural_digest(dfa)
    with _canon_lock:
        cached = _canon_cache.get(key)
        if cached is not None:
            _canon_cache.move_to_end(key)
            return cached
    result = minimize(dfa)
    with _canon_lock:
        _canon_cache[key] = result
        _canon_cache.move_to_end(key)
        while len(_canon_cache) > MAX_CANONICAL_CACHE:
            _canon_cache.popitem(last=False)
    return result


# -- equivalence / inclusion (product-automaton refinement) ------------------

def _byte_tables(dfa: Dfa) -> tuple[np.ndarray, np.ndarray]:
    """Byte-level views: ``(transitions (256, S), emissions (S, 256))``."""
    return (dfa.transitions[dfa.symbol_groups],
            dfa.emissions[:, dfa.symbol_groups])


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Byte-level behavioural equivalence.

    Explores the reachable pairs of the product automaton (BFS over
    state pairs, vectorised over all 256 byte values per pair) and
    requires every pair to agree on INV-ness, the accepting flag, and
    the emission of every byte.  Equivalent automata parse every input
    identically: same symbol classification, same invalid position, same
    end-of-input acceptance.  Synthetic groups claiming no byte value
    (e.g. the padding group) are invisible to this check.
    """
    trans_a, emis_a = _byte_tables(a)
    trans_b, emis_b = _byte_tables(b)
    start = (a.start_state, b.start_state)
    seen = {start}
    stack = [start]
    while stack:  # parlint: disable=PPR401 -- product BFS over <= S_a * S_b state pairs, configuration-time only
        s, t = stack.pop()
        if (s == a.invalid_state) != (t == b.invalid_state):
            return False
        if (s in a.accepting) != (t in b.accepting):
            return False
        if not np.array_equal(emis_a[s], emis_b[t]):
            return False
        pairs = np.unique(
            np.column_stack([trans_a[:, s], trans_b[:, t]]), axis=0)
        for s2, t2 in pairs:
            pair = (int(s2), int(t2))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def included(a: Dfa, b: Dfa) -> bool:
    """Dialect inclusion: ``b`` parses everything ``a`` parses, identically.

    Along every input that ``a`` considers valid (never transitions into
    ``a``'s INV sink), ``b`` must stay valid too, classify every symbol
    with the same emission, and accept end-of-input whenever ``a``
    accepts it.  On inputs ``a`` rejects, ``b`` is unconstrained — that
    is where a lenient dialect may accept more.  ``equivalent(a, b)``
    implies inclusion both ways; the converse need not hold.
    """
    trans_a, emis_a = _byte_tables(a)
    trans_b, emis_b = _byte_tables(b)
    if a.start_state == a.invalid_state:
        return True   # `a` accepts nothing at all
    start = (a.start_state, b.start_state)
    seen = {start}
    stack = [start]
    while stack:  # parlint: disable=PPR401 -- product BFS over <= S_a * S_b state pairs, configuration-time only
        s, t = stack.pop()
        if t == b.invalid_state:
            return False
        if s in a.accepting and t not in b.accepting:
            return False
        next_a = trans_a[:, s]
        valid = np.ones(NUM_BYTE_VALUES, dtype=bool) \
            if a.invalid_state is None else next_a != a.invalid_state
        if not np.array_equal(emis_a[s][valid], emis_b[t][valid]):
            return False
        pairs = np.unique(np.column_stack(
            [next_a[valid], trans_b[:, t][valid]]), axis=0)
        for s2, t2 in pairs:
            pair = (int(s2), int(t2))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True
