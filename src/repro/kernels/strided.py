"""Multi-symbol strided kernels for the byte-bound phases.

The two hot loops of the pipeline — the STV simulation and the tagging
sweep, whose unit-stride forms are the test oracles
:func:`repro.reference.core.context.compute_transition_vectors` and
:func:`repro.reference.core.tagging.compute_emissions` — advance every
chunk by *one* symbol per Python-level iteration, so a chunk of ``n``
bytes pays ``n`` rounds of interpreter and NumPy-dispatch overhead on
top of the actual table gathers.  ParPaRaw's own answer to per-symbol
serial depth is to process several symbols per thread step: MFIRA packs
fragments into registers (paper §5.2) and SWAR matches multiple bytes
branchlessly (§5.3).  This module is the NumPy translation of that idea.

Given a DFA with ``G`` symbol groups and ``S`` states, a *stride* ``k``
and the packed k-gram ``g_0·G^(k-1) + … + g_{k-1}`` of ``k`` consecutive
symbols, :func:`build_tables` precomposes

* ``transitions[kgram, state]`` — the state after consuming all ``k``
  symbols (the k-fold composition of the base transition table);
* ``emissions[kgram, state, 0..k-1]`` — the :class:`Emission` code of
  every one of the ``k`` symbols, as emitted by the base Mealy table
  along the way — plus, for word-sized strides, a SWAR view of the same
  table packing the ``k`` codes into a single machine word, so the
  tagging sweep gathers one word per chunk per block instead of ``k``
  scattered bytes (the §5.3 trick: several symbols matched per
  register-width operation);
* ``first_invalid[kgram, state]`` — the block-local index of the first
  symbol that is *read in* the INV sink state (``-1`` if none), which is
  exactly the intermediate-state information the unit-stride sweep
  derives symbol by symbol.

Both sweeps run one kind of kernel, a :class:`KernelPlan`: the chunk is
decomposed down the supported-stride ladder (``31 = 8+8+8+4+2+1``), each
segment advances by one gather on the widest table that fits it, and at
most one trailing symbol is finished by a unit-stride loop.  The Python
loop shrinks from ``chunk_size`` iterations to about ``chunk_size / k``.
Unit stride is the same kernel with an empty plan: at ``k = 1`` there are
no segments and no tables, and the unit loop covers the whole chunk.
The outputs are bit-identical to those unit-stride sweeps by construction
— the tables are *the same function*, memoised over k-grams — and the
parity property suite in ``tests/kernels`` proves it over random
dialects, inputs and strides.

The trade-off is table memory: ``G^k`` rows.  :func:`pick_stride`
selects the largest supported ``k`` whose plan fits a byte budget
(falling back to the empty ``k = 1`` plan), so small automata stride
wide while group-rich automata degrade gracefully.  The pipeline
minimises the automaton first (:mod:`repro.dfa.minimize`), shrinking
both ``G`` and ``S`` — a quote-less no-CR dialect collapses to one state
and four groups, whose whole k=8 plan is ~0.7 MB — which is what lets
every shipped dialect reach ``k = 4`` or ``k = 8``.
"""

from __future__ import annotations

# parlint: hot-path -- strided byte-bound kernels; loops need waivers

from dataclasses import dataclass

import numpy as np

from repro.dfa.automaton import Dfa
from repro.errors import ParseError

__all__ = [
    "StridedTables",
    "KernelPlan",
    "SUPPORTED_STRIDES",
    "DEFAULT_TABLE_BUDGET",
    "build_tables",
    "build_plan",
    "table_nbytes",
    "plan_nbytes",
    "plan_segments",
    "pick_stride",
    "resolve_stride",
    "pack_plan",
    "compute_transition_vectors_plan",
    "compute_emissions_plan",
]

#: Strides whose k emission bytes fit one machine word (SWAR packing).
_EMISSION_WORD_DTYPES: dict[int, type] = {
    1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64,
}

#: Strides the auto-picker considers, best first — exactly the word
#: sizes the SWAR emission view supports, so the picker can never select
#: a stride :func:`build_tables` lacks a packed-word path for (and a new
#: word size added above is picked up everywhere at once).  Any
#: ``k >= 1`` is still legal to request explicitly.
SUPPORTED_STRIDES: tuple[int, ...] = tuple(sorted(
    (k for k in _EMISSION_WORD_DTYPES if k > 1), reverse=True))

#: Default ceiling for the precomposed tables of one ``(dfa, k)`` pair.
#: 4 MiB keeps every table well inside L2 — a table that spills out of
#: cache loses the very memory locality the striding is buying.
DEFAULT_TABLE_BUDGET = 4 << 20

#: Hard ceiling for explicitly requested strides: building a table this
#: large is always a configuration error, not a tuning choice.
_HARD_TABLE_CAP = 1 << 30


@dataclass(frozen=True)
class StridedTables:
    """Precomposed k-step DFA tables (see module docstring).

    Built once per ``(dfa, k)`` by :func:`build_tables` and cached
    process-wide by :mod:`repro.kernels.cache`; instances are immutable
    and safe to share across parses, shards and threads.
    """

    #: The automaton the tables were composed from (with padding group).
    dfa: Dfa
    #: Symbols advanced per table gather.
    k: int
    #: ``(G**k, S)`` uint8 — state after consuming a whole k-gram.
    transitions: np.ndarray
    #: ``(G**k, S, k)`` uint8 — emission of each symbol in the k-gram.
    emissions: np.ndarray
    #: ``(G**k, S)`` int16 — block-local index of the first symbol read
    #: in the INV sink (-1 = never); ``None`` when the DFA has no sink.
    first_invalid: np.ndarray | None
    #: ``(G**k, S)`` uint{8k} — the k emission bytes of each cell packed
    #: into one machine word (a zero-copy view of ``emissions``, native
    #: byte order); ``None`` when ``k`` is not a word size.  Lets the
    #: tagging sweep gather one word instead of ``k`` scattered bytes —
    #: the SWAR device of paper §5.3.
    emission_words: np.ndarray | None = None

    @property
    def num_kgrams(self) -> int:
        return self.transitions.shape[0]

    @property
    def nbytes(self) -> int:
        """Total table footprint in bytes."""
        invalid = self.first_invalid.nbytes if self.first_invalid is not None \
            else 0
        return self.transitions.nbytes + self.emissions.nbytes + invalid


def table_nbytes(num_groups: int, num_states: int, k: int) -> int:
    """Predicted footprint of :func:`build_tables` output (bytes)."""
    kgrams = num_groups ** k
    # transitions (1 B) + emissions (k B) + first_invalid (2 B) per
    # (kgram, state) cell.
    return kgrams * num_states * (1 + k + 2)


def _ladder(k: int) -> tuple[int, ...]:
    """The descending table strides a ``k``-stride plan may use: ``k``
    itself plus every supported stride below it (the remainder ladder);
    empty at ``k = 1``."""
    return tuple(sorted({s for s in (k, *SUPPORTED_STRIDES) if 2 <= s <= k},
                        reverse=True))


def plan_segments(chunk_size: int, k: int
                  ) -> tuple[tuple[tuple[int, int], ...], int]:
    """Greedy mixed-stride decomposition of a chunk.

    Returns ``(segments, unit_tail)`` where ``segments`` is a tuple of
    ``(offset, stride)`` blocks, largest strides first, and ``unit_tail``
    is the count of trailing symbols finished unit-stride.  E.g. the
    paper's 31-byte chunk at ``k = 8`` decomposes as ``8+8+8+4+2`` plus a
    1-byte tail — 6 steps where a single k=4 table would need 10 —
    because the remainder after the widest blocks cascades down the
    supported-stride ladder instead of degrading straight to unit stride.
    At ``k = 1`` the ladder has no rung: no segments, and the whole chunk
    is the unit tail.
    """
    if k < 1:
        raise ParseError("stride must be >= 1")
    segments: list[tuple[int, int]] = []
    offset = 0
    for stride in _ladder(k):  # parlint: disable=PPR401 -- <= len(SUPPORTED_STRIDES)+1 ladder rungs, configuration-time arithmetic only
        while offset + stride <= chunk_size:  # parlint: disable=PPR401 -- chunk_size // stride blocks, configuration-time arithmetic only
            segments.append((offset, stride))
            offset += stride
    return tuple(segments), chunk_size - offset


def plan_nbytes(num_groups: int, num_states: int, k: int) -> int:
    """Worst-case footprint of every table a ``k``-stride plan can
    materialise (the ``k`` table plus the whole remainder ladder below
    it).  Conservative and chunk-size-independent, so the auto-picker's
    verdict holds for every chunk size."""
    return sum(table_nbytes(num_groups, num_states, stride)
               for stride in _ladder(k))


def pick_stride(dfa: Dfa, budget: int = DEFAULT_TABLE_BUDGET) -> int:
    """Largest supported stride whose plan fits ``budget`` bytes.

    Sized against :func:`plan_nbytes` — the whole mixed-stride ladder a
    plan may build, not just the headline ``k`` table.  Falls back to
    ``1`` (the empty plan, no tables at all) when even ``k = 2``
    would blow the budget — automata with very many symbol groups keep
    working, just without striding.
    """
    for k in SUPPORTED_STRIDES:  # parlint: disable=PPR401 -- len(SUPPORTED_STRIDES) candidates, configuration-time arithmetic only
        if plan_nbytes(dfa.num_groups, dfa.num_states, k) <= budget:
            return k
    return 1


def resolve_stride(requested: int | None, dfa: Dfa,
                   budget: int = DEFAULT_TABLE_BUDGET) -> int:
    """The stride a parse actually runs with.

    ``requested is None`` selects automatically via :func:`pick_stride`;
    an explicit stride is honoured (``1`` = the empty plan) but
    rejected when its tables would be absurdly large.
    """
    if requested is None:
        return pick_stride(dfa, budget)
    if requested < 1:
        raise ParseError("kernel_stride must be >= 1")
    if requested > 1 and table_nbytes(dfa.num_groups, dfa.num_states,
                                      requested) > _HARD_TABLE_CAP:
        raise ParseError(
            f"kernel_stride={requested} needs a "
            f"{dfa.num_groups}**{requested}-row table; reduce the stride "
            f"or use kernel_stride=None for automatic selection")
    return requested


def build_tables(dfa: Dfa, k: int) -> StridedTables:
    """Precompose the DFA over all k-grams (see module docstring).

    The build iterates over the ``k`` positions of the block — never over
    input data — extending every (prefix, start-state) pair by all ``G``
    possible next symbols at once, so it costs ``O(G^k · S)`` table cells
    and is independent of input size.  The packed index of prefix ``p``
    extended by group ``g`` is ``p·G + g``, matching
    :func:`pack_plan`'s big-endian packing.
    """
    if k < 1:
        raise ParseError("stride must be >= 1")
    num_groups, num_states = dfa.num_groups, dfa.num_states
    transitions = dfa.transitions          # (G, S): group-major
    emission_table = dfa.emissions         # (S, G): state-major
    invalid = dfa.invalid_state

    groups = np.arange(num_groups)
    # State after the (initially empty) prefix, per (prefix, start state).
    prefix_states = np.broadcast_to(
        np.arange(num_states, dtype=np.uint8), (1, num_states)).copy()
    emissions = np.empty((1, num_states, 0), dtype=np.uint8)
    first_invalid = np.full((1, num_states), -1, dtype=np.int16) \
        if invalid is not None else None

    for i in range(k):  # parlint: disable=PPR401 -- loop over the k<=stride block positions, not over input; each body is a vectorised table extension
        num_prefixes = prefix_states.shape[0]
        # Symbol i is read in the prefix state; extension by group g
        # lands the (prefix*G + g) row of every table.
        step_emissions = emission_table[
            prefix_states[:, None, :], groups[None, :, None]]
        next_states = transitions[
            groups[None, :, None], prefix_states[:, None, :]]
        if first_invalid is not None:
            hit = prefix_states == invalid
            first_invalid = np.where(
                first_invalid >= 0, first_invalid,
                np.where(hit, np.int16(i), np.int16(-1)))
            first_invalid = np.repeat(first_invalid, num_groups, axis=0)
        emissions = np.concatenate([
            np.repeat(emissions, num_groups, axis=0),
            step_emissions.reshape(num_prefixes * num_groups,
                                   num_states)[:, :, None],
        ], axis=2)
        prefix_states = next_states.reshape(
            num_prefixes * num_groups, num_states)

    emissions = np.ascontiguousarray(emissions)
    word_dtype = _EMISSION_WORD_DTYPES.get(k)
    # The word view and the byte table alias the same memory; viewing in
    # native order on both the pack and unpack side makes the round trip
    # endianness-independent.
    emission_words = emissions.view(word_dtype)[:, :, 0] \
        if word_dtype is not None else None
    return StridedTables(
        dfa=dfa,
        k=k,
        transitions=np.ascontiguousarray(prefix_states),
        emissions=emissions,
        first_invalid=np.ascontiguousarray(first_invalid)
        if first_invalid is not None else None,
        emission_words=emission_words,
    )


# -- mixed-stride plans ------------------------------------------------------

@dataclass(frozen=True)
class KernelPlan:
    """A chunk-shaped execution plan over mixed strides.

    A single ``k`` table would leave ``chunk_size % k`` symbols to a
    scalar tail — at the paper's 31-byte chunks k=8 alone pays 3 table
    steps *plus 7 scalar rounds*, no better than k=4.  A plan instead
    decomposes the chunk down the supported-stride ladder
    (:func:`plan_segments`) and carries one :class:`StridedTables` per
    distinct stride, so every segment advances by the widest table that
    still fits.  The ``k = 1`` plan is empty: no segments, no tables,
    ``unit_tail == chunk_size``.  Built by :func:`build_plan` (or the
    caching :func:`repro.kernels.cache.get_plan`); immutable and
    shareable like the tables it wraps.
    """

    #: The automaton the plan executes (with padding group).
    dfa: Dfa
    #: The headline stride the plan was built for.
    k: int
    #: The chunk width the segment decomposition is valid for.
    chunk_size: int
    #: ``(offset, stride)`` blocks, widest strides first, covering
    #: ``chunk_size - unit_tail`` symbols.
    segments: tuple[tuple[int, int], ...]
    #: Trailing symbols finished by the unit-stride scalar loop.
    unit_tail: int
    #: Precomposed tables keyed by stride, one per distinct segment width.
    tables: dict[int, StridedTables]

    @property
    def nbytes(self) -> int:
        """Total footprint of the plan's tables in bytes."""
        return sum(t.nbytes for t in self.tables.values())


def build_plan(dfa: Dfa, k: int, chunk_size: int,
               table_source=build_tables) -> KernelPlan:
    """Build the mixed-stride plan for ``(dfa, k, chunk_size)``.

    ``table_source(dfa, stride)`` supplies the per-stride tables —
    :func:`build_tables` by default; the kernel cache passes its caching
    getter so plans share tables process-wide.
    """
    segments, unit_tail = plan_segments(chunk_size, k)
    strides = sorted({stride for _, stride in segments}, reverse=True)
    tables = {stride: table_source(dfa, stride) for stride in strides}
    return KernelPlan(dfa=dfa, k=k, chunk_size=chunk_size,
                      segments=segments, unit_tail=unit_tail,
                      tables=tables)


def pack_plan(groups: np.ndarray, plan: KernelPlan
              ) -> dict[int, np.ndarray]:
    """Packed k-gram indexes for every segment of ``plan``.

    Returns ``{stride: (num_chunks, segments_of_that_stride) int32}``,
    segment columns in plan order.  Stride ``s`` packs the ``s`` groups
    of a segment big-endian, ``g_0·G^(s-1) + … + g_{s-1}`` — the row
    order of :func:`build_tables` — in ``s`` vectorised shift-add passes
    over the whole chunk grid.  Empty for the ``k = 1`` plan.
    """
    if groups.ndim != 2 or groups.shape[1] != plan.chunk_size:
        raise ValueError("groups do not match the plan's chunk grid")
    num_groups = plan.dfa.num_groups
    packed: dict[int, np.ndarray] = {}
    for stride in plan.tables:  # parlint: disable=PPR401 -- one pass per distinct stride (<= ladder length), each vectorised over the chunk grid
        offsets = np.array([offset for offset, s in plan.segments
                            if s == stride])
        columns = groups[:, offsets[:, None] + np.arange(stride)[None, :]]
        words = columns[:, :, 0].astype(np.int32)
        for i in range(1, stride):  # parlint: disable=PPR401 -- stride<=k shift-add passes, each vectorised over the whole chunk grid
            words *= num_groups
            words += columns[:, :, i]
        packed[stride] = words
    return packed


def _segment_columns(plan: KernelPlan):
    """Yield ``(segment_index, offset, stride, packed_column)`` so the
    sweeps can walk segments in plan order while indexing the per-stride
    packed matrices of :func:`pack_plan`."""
    counters = {stride: 0 for stride in plan.tables}
    for index, (offset, stride) in enumerate(plan.segments):  # parlint: disable=PPR401 -- bookkeeping over <= ~10 plan segments, not input data
        column = counters[stride]
        counters[stride] = column + 1
        yield index, offset, stride, column


def compute_transition_vectors_plan(groups: np.ndarray, plan: KernelPlan,
                                    packed: dict[int, np.ndarray] | None
                                    = None) -> np.ndarray:
    """STVs for all chunks, one table gather per plan segment (cf.
    :func:`repro.reference.core.context.compute_transition_vectors`).

    Bit-identical to the unit-stride sweep: every per-stride table is the
    exact composition of the base table over its block, and composition
    is associative regardless of how the chunk is split.  ``packed`` may
    carry a precomputed :func:`pack_plan` result so the STV and tagging
    sweeps of one parse share a single packing pass.
    """
    if groups.ndim != 2:
        raise ValueError("expected a (num_chunks, chunk_size) matrix")
    num_chunks, chunk_size = groups.shape
    if chunk_size != plan.chunk_size:
        raise ValueError("chunk grid does not match the plan")
    dfa = plan.dfa
    vectors = np.broadcast_to(
        np.arange(dfa.num_states, dtype=np.uint8),
        (num_chunks, dfa.num_states)).copy()
    if packed is None:
        packed = pack_plan(groups, plan)
    for _, _, stride, column in _segment_columns(plan):  # parlint: disable=PPR401 -- one iteration per plan segment (~chunk_size/k); vectorised over the num_chunks axis
        vectors = plan.tables[stride].transitions[
            packed[stride][:, column, None], vectors]
    transitions = dfa.transitions
    for j in range(chunk_size - plan.unit_tail, chunk_size):  # parlint: disable=PPR401 -- unit tail: < 2 symbols at k >= 2, the whole chunk (the per-thread serial depth) for the empty k=1 plan; vectorised over the num_chunks axis
        vectors = transitions[groups[:, j, None], vectors]
    return vectors


def compute_emissions_plan(groups: np.ndarray, start_states: np.ndarray,
                           plan: KernelPlan, chunking,
                           packed: dict[int, np.ndarray] | None = None
                           ) -> tuple[np.ndarray, int, int | None]:
    """Tagging sweep over a mixed-stride plan (cf.
    :func:`repro.reference.core.tagging.compute_emissions`).

    Returns the same ``(emissions, final_state, invalid_position)``
    triple as the unit-stride sweep, bit for bit.  Each segment gathers
    one SWAR word (every supported stride is a word size) and re-views it
    as the segment's emission bytes.  INV detection exploits the sink
    property: once entered, INV is never left, so a chunk read a symbol
    in the sink iff its *end* state is the sink (or it entered on its
    very last transition, in which case the next chunk reads its first
    symbol there).  The hot loop therefore records only segment entry
    states, and the exact offset is recovered by a scalar replay of the
    first affected chunk through the per-segment ``first_invalid``
    tables, then the unit tail, then the next chunk's first symbol.
    That reproduces the unit-stride position also when it falls
    mid-segment or inside the padded tail (where the ``position <
    input_bytes`` filter discards it identically).  ``packed`` may carry
    a precomputed :func:`pack_plan` result.
    """
    num_chunks, chunk_size = groups.shape
    if chunk_size != plan.chunk_size:
        raise ValueError("chunk grid does not match the plan")
    dfa = plan.dfa
    invalid = dfa.invalid_state
    states = start_states.astype(np.uint8).copy()
    emissions = np.empty((num_chunks, chunk_size), dtype=np.uint8)
    if packed is None:
        packed = pack_plan(groups, plan)
    entry_states = np.empty((num_chunks, len(plan.segments)),
                            dtype=np.uint8) if invalid is not None else None
    for index, offset, stride, column in _segment_columns(plan):  # parlint: disable=PPR401 -- one iteration per plan segment (~chunk_size/k); vectorised over the num_chunks axis
        tables = plan.tables[stride]
        kgrams = packed[stride][:, column]
        if entry_states is not None:
            entry_states[:, index] = states
        # One word gather per chunk per segment (§5.3), re-viewed as the
        # segment's emission bytes in the same native order it was
        # packed; explicitly requested non-word strides gather bytes.
        if tables.emission_words is not None:
            emissions[:, offset:offset + stride] = \
                tables.emission_words[kgrams, states].view(
                    np.uint8).reshape(num_chunks, stride)
        else:
            emissions[:, offset:offset + stride] = \
                tables.emissions[kgrams, states]
        states = tables.transitions[kgrams, states]

    tail_entry = states.copy() if invalid is not None else None
    tail_start = chunk_size - plan.unit_tail
    transitions = dfa.transitions
    emission_table = dfa.emissions
    for j in range(tail_start, chunk_size):  # parlint: disable=PPR401 -- unit tail: < 2 symbols at k >= 2, the whole chunk (the per-thread serial depth) for the empty k=1 plan; vectorised over the num_chunks axis
        g = groups[:, j]
        emissions[:, j] = emission_table[states, g]
        states = transitions[g, states]

    final_state = int(states[-1])
    flat = emissions.reshape(-1)[:chunking.input_bytes]

    invalid_position: int | None = None
    if invalid is not None:
        bad = np.flatnonzero(states == invalid)   # sink: end == visited
        if bad.size:
            chunk = int(bad[0])
            offset_found = -1
            for index, offset, stride, column in _segment_columns(plan):  # parlint: disable=PPR401 -- scalar replay of one chunk, one step per plan segment
                off = int(plan.tables[stride].first_invalid[
                    packed[stride][chunk, column],
                    entry_states[chunk, index]])
                if off >= 0:
                    offset_found = offset + off
                    break
            if offset_found < 0:
                state = int(tail_entry[chunk])
                for j in range(tail_start, chunk_size):  # parlint: disable=PPR401 -- scalar replay of one chunk's unit tail: < 2 steps at k >= 2, <= chunk_size for the empty k=1 plan
                    if state == invalid:
                        offset_found = j
                        break
                    state = int(transitions[groups[chunk, j], state])
            if offset_found < 0:
                # Entered the sink on the chunk's very last transition:
                # the first symbol read in it is the next chunk's first.
                chunk += 1
                offset_found = 0 if chunk < num_chunks else -1
            if offset_found >= 0:
                position = chunk * chunk_size + offset_found
                if position < chunking.input_bytes:
                    invalid_position = position
    return flat, final_state, invalid_position
