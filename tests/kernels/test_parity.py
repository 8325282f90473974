"""Parity: kernel plans must be bit-identical to the unit-stride oracles.

The acceptance bar of the kernel layer: for every stride (the empty
k=1 plan included), dialect, chunk geometry and input — including
inputs whose length is not a multiple of the chunk size, chunk sizes
that are not a multiple of k, and invalid bytes falling mid-segment or
inside the padded tail — the plan sweeps return exactly what the
reference sweeps of ``repro.core.context`` / ``repro.core.tagging``
return: same STVs, same emission stream, same final state, same
``invalid_position``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Dialect, ParPaRawParser, ParseOptions
from repro.baselines.sequential import SequentialParser, sequential_rows
from repro.core.chunking import chunk_groups
from repro.core.context import chunk_start_states
from repro.reference.core.context import compute_transition_vectors
from repro.reference.core.tagging import compute_emissions
from repro.dfa import dialect_dfa
from repro.exec import ShardedExecutor
from repro.kernels import (
    compute_emissions_plan,
    compute_transition_vectors_plan,
    get_plan,
    pack_plan,
)
from repro.dfa.minimize import canonicalize
from repro.kernels.strided import plan_nbytes, table_nbytes
from tests.conftest import TRICKY_INPUTS
from tests.exec.test_executors import assert_results_match

STRIDES = (1, 2, 4, 8)

#: Raw (unminimised) k=8 tables are only exercised where they stay
#: affordable — G**8 rows explode for group-rich automata (csv-with-CR
#: is 123 MB, csv-with-comments 484 MB); those dialects cover k=8
#: through the parser path, which minimises first.
_K8_RAW_TABLE_CAP = 32 << 20

DIALECTS = [
    Dialect(strip_carriage_return=False),
    Dialect.csv(),
    Dialect.tsv(),
    Dialect.pipe(),
    Dialect.csv_with_comments(),
    Dialect(escape=b"\\", quote=None, strip_carriage_return=False),
]


def strides_for(padded) -> tuple[int, ...]:
    """The strides whose raw tables are affordable for this automaton."""
    return tuple(k for k in STRIDES if k < 8 or table_nbytes(
        padded.num_groups, padded.num_states, 8) <= _K8_RAW_TABLE_CAP)


def plan_sweeps(raw: np.ndarray, dfa, chunk_size: int, k: int):
    """(unit oracle, plan) results of the full phase-1+2 sweep pair, the
    plan being the :class:`~repro.kernels.KernelPlan` of stride ``k``
    (the empty plan at k=1)."""
    groups, chunking, padded = chunk_groups(raw, dfa, chunk_size)
    plan = get_plan(padded, k, chunk_size)  # cache amortises k=8 builds
    packed = pack_plan(groups, plan)

    unit_vectors = compute_transition_vectors(groups, padded)
    plan_vectors = compute_transition_vectors_plan(groups, plan, packed)

    starts = chunk_start_states(unit_vectors, padded)
    unit = compute_emissions(groups, starts, padded, chunking)
    planned = compute_emissions_plan(groups, starts, plan, chunking, packed)
    return (unit_vectors, unit), (plan_vectors, planned)


def assert_sweeps_equal(raw: np.ndarray, dfa, chunk_size: int, k: int):
    (uv, (ue, uf, ui)), (sv, (se, sf, si)) = plan_sweeps(
        raw, dfa, chunk_size, k)
    assert sv.shape == uv.shape and se.shape == ue.shape
    np.testing.assert_array_equal(uv, sv)
    np.testing.assert_array_equal(ue, se)
    assert uf == sf
    assert ui == si


@pytest.mark.parametrize("dialect", DIALECTS,
                         ids=lambda d: f"{d.delimiter!r}-{d.quote!r}")
@pytest.mark.parametrize("chunk_size", [3, 5, 8, 31])
def test_tricky_inputs_all_strides(dialect, chunk_size):
    dfa = dialect_dfa(dialect)
    padded = dfa.with_padding_group()
    for data in TRICKY_INPUTS:
        raw = np.frombuffer(data, dtype=np.uint8)
        for k in strides_for(padded):
            assert_sweeps_equal(raw, dfa, chunk_size, k)


@pytest.mark.parametrize("k", STRIDES)
def test_invalid_at_every_block_offset(k):
    """The INV sink must be reported at the same byte whether it is hit
    at a segment boundary, mid-segment, or in the unit-stride tail."""
    dfa = dialect_dfa(Dialect(strip_carriage_return=False))
    for prefix_len in range(14):
        # A stray quote after unquoted data drives RFC 4180 into INV at
        # a position controlled by the prefix length.
        data = b"x" * prefix_len + b'a"suffix,more\ndata,rows\n'
        raw = np.frombuffer(data, dtype=np.uint8)
        for chunk_size in (5, 7, 31):
            (_, (_, _, ui)), (_, (_, _, invalid)) = plan_sweeps(
                raw, dfa, chunk_size, k)
            assert ui == invalid
            # And the reported position is the real one, not merely equal.
            assert invalid is not None
            assert invalid > prefix_len


class TestPaddedTail:
    """Satellite: plans over the padded tail of the chunk grid.

    Inputs whose length is not a multiple of the chunk size leave a
    partially padded final chunk; chunk sizes that are not a multiple of
    k leave narrower ladder segments and a unit-stride tail in *every*
    chunk.  Neither may leak padding into the emission stream or the
    invalid position.
    """

    DFA = dialect_dfa(Dialect(strip_carriage_return=False))

    @pytest.mark.parametrize("k", STRIDES)
    @pytest.mark.parametrize("chunk_size", [5, 6, 7, 31])
    def test_length_not_multiple_of_chunk(self, k, chunk_size):
        for extra in range(1, chunk_size):
            data = (b"aa,bb\n" * 8)[:8 * 6 - chunk_size + extra]
            raw = np.frombuffer(data, dtype=np.uint8)
            assert_sweeps_equal(raw, self.DFA, chunk_size, k)

    @pytest.mark.parametrize("k", (*STRIDES, 3))
    def test_chunk_not_multiple_of_stride(self, k):
        # chunk sizes with every possible remainder 0..k-1; k=3 is not a
        # word size, so its segments gather emission bytes, not words
        for chunk_size in range(k, 3 * k + 1):
            data = b"f0,f1,f2\nv0,v1,v2\n" * 3
            raw = np.frombuffer(data, dtype=np.uint8)
            assert_sweeps_equal(raw, self.DFA, chunk_size, k)

    @pytest.mark.parametrize("k", STRIDES)
    def test_emissions_cover_exactly_the_input(self, k):
        data = b"a,b\nc,d\ne"
        raw = np.frombuffer(data, dtype=np.uint8)
        groups, chunking, padded = chunk_groups(raw, self.DFA, 4)
        plan = get_plan(padded, k, 4)
        starts = chunk_start_states(
            compute_transition_vectors_plan(groups, plan), padded)
        # No packed k-grams passed: the kernel packs them itself, as the
        # sharded workers rely on.
        emissions, _, invalid = compute_emissions_plan(
            groups, starts, plan, chunking)
        assert emissions.shape == (len(data),)
        assert invalid is None

    @pytest.mark.parametrize("k", STRIDES)
    def test_invalid_only_in_padding_is_not_reported(self, k):
        # An unclosed quote ends the input mid-string: the padding group
        # keeps the DFA in the quoted state, never INV, and nothing
        # beyond the input length may surface.
        data = b'a,"unclosed'
        raw = np.frombuffer(data, dtype=np.uint8)
        for chunk_size in (4, 7, 31):
            (_, (ue, uf, ui)), (_, (se, sf, si)) = plan_sweeps(
                raw, self.DFA, chunk_size, k)
            assert ui is None and si is None
            assert uf == sf
            np.testing.assert_array_equal(ue, se)


class TestPlanParity:
    """The plan sweeps over the *canonical minimised* automaton — the
    automaton the pipeline actually sweeps — against the unit oracles
    over that same automaton.  At k=8 this exercises the 8+8+8+4+2(+1)
    cascade the paper's 31-byte chunk decomposes into."""

    @pytest.mark.parametrize("dialect", DIALECTS,
                             ids=lambda d: f"{d.delimiter!r}-{d.quote!r}")
    @pytest.mark.parametrize("chunk_size", [5, 8, 31])
    def test_tricky_inputs(self, dialect, chunk_size):
        dfa = canonicalize(dialect_dfa(dialect)).dfa
        padded = dfa.with_padding_group()
        for data in TRICKY_INPUTS:
            raw = np.frombuffer(data, dtype=np.uint8)
            for k in strides_for(padded):
                assert_sweeps_equal(raw, dfa, chunk_size, k)

    def test_invalid_position_recovered_across_segments(self):
        """A stray quote driving RFC 4180 into INV must be located at the
        same byte whichever ladder segment consumes it."""
        dfa = dialect_dfa(Dialect(strip_carriage_return=False))
        for prefix_len in range(18):
            data = b"x" * prefix_len + b'a"suffix,more\ndata,rows\n'
            raw = np.frombuffer(data, dtype=np.uint8)
            for chunk_size in (7, 31):
                (_, (_, _, ui)), (_, (_, _, pi)) = plan_sweeps(
                    raw, dfa, chunk_size, 8)
                assert ui == pi and pi is not None


ALPHABET = b'ab,"\n\\|#\t '


@given(
    data=st.lists(st.sampled_from(list(ALPHABET)), max_size=160).map(bytes),
    dialect_index=st.integers(min_value=0, max_value=len(DIALECTS) - 1),
    chunk_size=st.integers(min_value=1, max_value=40),
    k=st.sampled_from(STRIDES),
)
@settings(max_examples=120, deadline=None)
def test_parity_property(data, dialect_index, chunk_size, k):
    dfa = dialect_dfa(DIALECTS[dialect_index])
    padded = dfa.with_padding_group()
    if k not in strides_for(padded):
        k = 4  # group-rich automata keep k=8 coverage via the parser path
    raw = np.frombuffer(data, dtype=np.uint8)
    assert_sweeps_equal(raw, dfa, chunk_size, k)


def _canonical_plan_k8_affordable(dialect) -> bool:
    padded = canonicalize(dialect_dfa(dialect)).dfa.with_padding_group()
    return plan_nbytes(padded.num_groups, padded.num_states,
                       8) <= _K8_RAW_TABLE_CAP


#: Dialects whose *canonical* k=8 plan stays affordable — what an
#: explicit ``kernel_stride=8`` would really build.  Group-rich automata
#: (csv-with-CR, csv-with-comments) are auto-capped to narrower strides
#: in production and keep their k≤4 coverage above.
PLAN_K8_DIALECTS = [d for d in DIALECTS if _canonical_plan_k8_affordable(d)]


@given(
    data=st.lists(st.sampled_from(list(ALPHABET)), max_size=160).map(bytes),
    dialect_index=st.integers(min_value=0,
                              max_value=len(PLAN_K8_DIALECTS) - 1),
    chunk_size=st.integers(min_value=2, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_plan_parity_property_k8(data, dialect_index, chunk_size):
    """Property leg for the production path: minimised first (shrinking
    G**8), then swept with the full k=8 ladder."""
    options = ParseOptions(dialect=PLAN_K8_DIALECTS[dialect_index],
                           chunk_size=chunk_size, kernel_stride=8,
                           kernel_table_budget=_K8_RAW_TABLE_CAP)
    baseline = options.with_(kernel_stride=1)
    a = ParPaRawParser(baseline).parse(bytes(data))
    b = ParPaRawParser(options).parse(bytes(data))
    assert a.table.to_pylist() == b.table.to_pylist()
    assert a.validation.invalid_position == b.validation.invalid_position
    assert a.validation.final_state == b.validation.final_state


# -- full-parser parity, serial and sharded ----------------------------------

@pytest.mark.parametrize("k", STRIDES)
def test_parser_output_identical_across_strides(k):
    baseline = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                            kernel_stride=1)
    strided = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                           kernel_stride=k,
                           kernel_table_budget=_K8_RAW_TABLE_CAP)
    for data in TRICKY_INPUTS:
        a = ParPaRawParser(baseline).parse(data)
        b = ParPaRawParser(strided).parse(data)
        assert a.table.to_pylist() == b.table.to_pylist()
        assert a.num_records == b.num_records
        assert a.validation.invalid_position \
            == b.validation.invalid_position
        assert a.validation.final_state == b.validation.final_state


@pytest.mark.parametrize("dialect", DIALECTS,
                         ids=lambda d: f"{d.delimiter!r}-{d.quote!r}")
def test_minimised_matches_unminimised(dialect):
    """Parsing, which always sweeps the canonical minimised automaton,
    is bit-identical to the sequential reference over the raw dialect
    DFA, and reports the raw unit sweep's ``invalid_position``.
    ``final_state`` is compared up to state class — the minimised path
    reports the class representative, which is behaviourally (name
    string aside) the same parsing context."""
    dfa = dialect_dfa(dialect)
    state_map = canonicalize(dfa).state_map
    options = ParseOptions(dialect=dialect, chunk_size=8)
    for data in TRICKY_INPUTS:
        result = ParPaRawParser(options).parse(data)
        reference = SequentialParser(options).parse(data)
        assert result.table.to_pylist() == reference.to_pylist()
        _, final_state, _ = sequential_rows(data, dfa)
        assert result.validation.end_accepted \
            == dfa.is_accepting(final_state)
        assert state_map[result.validation.final_state] \
            == state_map[final_state]
        raw = np.frombuffer(data, dtype=np.uint8)
        (_, (_, _, invalid_position)), _ = plan_sweeps(raw, dfa, 8, 1)
        assert result.validation.invalid_position == invalid_position


@pytest.mark.parametrize("k", STRIDES)
def test_sharded_matches_serial_with_stride(k):
    options = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                           chunk_size=8, kernel_stride=k,
                           kernel_table_budget=_K8_RAW_TABLE_CAP)
    executor = ShardedExecutor(workers=3, shard_bytes=21,
                               use_processes=False)
    for data in TRICKY_INPUTS:
        assert_results_match(data, options, executor)


def test_sharded_process_pool_with_stride():
    """Workers resolve the same stride and produce identical results."""
    data = b"".join(b"%d,%d.5,w%d\n" % (i, i, i) for i in range(400))
    options = ParseOptions(dialect=Dialect(strip_carriage_return=False),
                           kernel_stride=2)
    executor = ShardedExecutor(workers=2, shard_bytes=len(data) // 3,
                               use_processes=True)
    assert_results_match(data, options, executor)
