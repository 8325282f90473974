"""Strided-table construction checked against the scalar DFA walk.

The precomposed tables claim to *be* the k-fold composition of the base
automaton.  Every claim is checked cell by cell against ``Dfa.step``:
the k-step transition, all k per-symbol emissions, and the block-local
index of the first symbol read in the INV sink.
"""

import numpy as np
import pytest

import repro.core.options as options_module
from repro import ParPaRawParser, ParseOptions
from repro.dfa import Dialect, dialect_dfa, rfc4180_dfa
from repro.errors import ParseError
from repro.exec import ShardedExecutor
from repro.kernels import (
    DEFAULT_TABLE_BUDGET,
    StridedTables,
    build_plan,
    build_tables,
    cache_info,
    pack_plan,
    pick_stride,
    plan_nbytes,
    plan_segments,
    resolve_stride,
    table_nbytes,
)
from repro.kernels.strided import _EMISSION_WORD_DTYPES, SUPPORTED_STRIDES
from repro.obs import MetricsRegistry
from repro.plan import Planner


def unpack_kgram(kgram: int, k: int, num_groups: int) -> list[int]:
    """Big-endian digits of a packed k-gram (inverse of the packing)."""
    digits = []
    for _ in range(k):
        digits.append(kgram % num_groups)
        kgram //= num_groups
    return digits[::-1]


def scalar_block(dfa, state: int, groups: list[int]):
    """Reference walk: (end state, emissions, first index read in INV)."""
    emissions = []
    first_invalid = -1
    for i, g in enumerate(groups):
        emissions.append(int(dfa.emissions[state, g]))
        if dfa.invalid_state is not None and state == dfa.invalid_state \
                and first_invalid < 0:
            first_invalid = i
        state = int(dfa.transitions[g, state])
    return state, emissions, first_invalid


@pytest.fixture(scope="module")
def padded_csv_dfa():
    return rfc4180_dfa().with_padding_group()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_tables_match_scalar_walk(padded_csv_dfa, k):
    dfa = padded_csv_dfa
    tables = build_tables(dfa, k)
    num_kgrams = dfa.num_groups ** k
    assert tables.transitions.shape == (num_kgrams, dfa.num_states)
    assert tables.emissions.shape == (num_kgrams, dfa.num_states, k)

    rng = np.random.default_rng(k)
    kgrams = np.arange(num_kgrams) if num_kgrams <= 200 \
        else rng.choice(num_kgrams, size=200, replace=False)
    for kgram in kgrams:
        block = unpack_kgram(int(kgram), k, dfa.num_groups)
        for state in range(dfa.num_states):
            end, emissions, first_invalid = scalar_block(dfa, state, block)
            assert int(tables.transitions[kgram, state]) == end
            assert tables.emissions[kgram, state].tolist() == emissions
            assert int(tables.first_invalid[kgram, state]) == first_invalid


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_emission_words_alias_emission_bytes(padded_csv_dfa, k):
    tables = build_tables(padded_csv_dfa, k)
    words = tables.emission_words
    assert words is not None
    assert words.dtype.itemsize == k
    assert words.shape == tables.emissions.shape[:2]
    # The word view must contain exactly the k emission bytes, in the
    # same native order a word buffer re-viewed as bytes produces.
    round_trip = np.ascontiguousarray(words).view(np.uint8).reshape(
        tables.emissions.shape)
    np.testing.assert_array_equal(round_trip, tables.emissions)


def test_no_emission_words_for_odd_strides(padded_csv_dfa):
    assert build_tables(padded_csv_dfa, 3).emission_words is None


def test_first_invalid_none_without_sink():
    # A dialect whose automaton accepts every byte has no INV sink.
    dfa = dialect_dfa(Dialect(quote=None, strip_carriage_return=False))
    padded = dfa.with_padding_group()
    if padded.invalid_state is None:
        tables = build_tables(padded, 2)
        assert tables.first_invalid is None


def test_table_nbytes_predicts_build(padded_csv_dfa):
    for k in (1, 2, 3):
        tables = build_tables(padded_csv_dfa, k)
        assert tables.nbytes == table_nbytes(
            padded_csv_dfa.num_groups, padded_csv_dfa.num_states, k)


def test_build_rejects_bad_stride(padded_csv_dfa):
    with pytest.raises(ParseError):
        build_tables(padded_csv_dfa, 0)


class TestStrideSelection:
    def test_auto_prefers_largest_fitting(self, padded_csv_dfa):
        assert pick_stride(padded_csv_dfa, DEFAULT_TABLE_BUDGET) == 4

    def test_auto_degrades_with_budget(self, padded_csv_dfa):
        dfa = padded_csv_dfa
        k2 = table_nbytes(dfa.num_groups, dfa.num_states, 2)
        k4 = table_nbytes(dfa.num_groups, dfa.num_states, 4)
        assert pick_stride(dfa, k4 - 1) == 2
        assert pick_stride(dfa, k2 - 1) == 1

    def test_resolve_auto_and_explicit(self, padded_csv_dfa):
        assert resolve_stride(None, padded_csv_dfa) == \
            pick_stride(padded_csv_dfa)
        assert resolve_stride(1, padded_csv_dfa) == 1
        assert resolve_stride(3, padded_csv_dfa) == 3

    def test_resolve_rejects_nonpositive(self, padded_csv_dfa):
        with pytest.raises(ParseError):
            resolve_stride(0, padded_csv_dfa)

    def test_resolve_rejects_absurd_tables(self, padded_csv_dfa):
        with pytest.raises(ParseError):
            resolve_stride(64, padded_csv_dfa)

    def test_auto_reaches_k8_on_pipe_logs(self):
        """The pipe-delimited, unquoted ``logs`` automaton minimises to
        one state, so its whole k=8 ladder fits the default budget."""
        logs = Dialect(delimiter=b"|", quote=None,
                       strip_carriage_return=False)
        assert ParseOptions(dialect=logs).resolved_stride() == 8


def test_pack_plan_big_endian(padded_csv_dfa):
    g = padded_csv_dfa.num_groups
    groups = (np.array([[0, 1, 2, 3, 4, 5, 1]]) % g).astype(np.uint8)
    plan = build_plan(padded_csv_dfa, 3, 7)
    # Two k=3 segments; the trailing symbol is left for the tail sweep.
    assert plan.segments == ((0, 3), (3, 3)) and plan.unit_tail == 1
    packed = pack_plan(groups, plan)
    assert set(packed) == {3}
    assert packed[3].shape == (1, 2)
    row = groups[0].astype(int)
    assert packed[3][0, 0] == row[0] * g * g + row[1] * g + row[2]
    assert packed[3][0, 1] == row[3] * g * g + row[4] * g + row[5]


class TestUnitStridePlan:
    """Unit stride is the empty k=1 plan, not a path of its own."""

    def test_k1_plan_is_empty(self, padded_csv_dfa):
        dfa = padded_csv_dfa
        plan = build_plan(dfa, 1, 31)
        assert plan.segments == ()
        assert plan.unit_tail == plan.chunk_size == 31
        assert plan.tables == {}
        assert plan.nbytes == plan_nbytes(dfa.num_groups, dfa.num_states,
                                          1) == 0
        groups = np.zeros((3, 31), dtype=np.uint8)
        assert pack_plan(groups, plan) == {}

    def test_k1_parse_builds_no_tables(self):
        before = cache_info()
        ParPaRawParser(ParseOptions(kernel_stride=1)).parse(
            b'a,"b,c"\n1,2\n' * 20)
        after = cache_info()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"]


def test_stride_resolved_once_per_options(monkeypatch):
    """Serial and sharded parses, ``Planner.observe`` and
    ``Planner.estimate_cost`` all read one options instance's stride,
    resolved on first use."""
    calls = []
    real = options_module.resolve_stride

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(options_module, "resolve_stride", counting)
    options = ParseOptions()
    data = b'a,"b,c"\n1,2\n' * 20
    metrics = MetricsRegistry()
    result = ParPaRawParser(options, metrics=metrics).parse(data)
    with ShardedExecutor(workers=2, shard_bytes=50,
                         use_processes=False) as sharded:
        ParPaRawParser(options, executor=sharded).parse(data)
    planner = Planner()
    planner.observe(result)
    planner.estimate_cost(len(data), options)
    assert len(calls) == 1
    assert metrics.gauges["stage.stv.stride"] \
        == metrics.gauges["stage.tag.stride"] == options.resolved_stride()


def test_tables_are_frozen(padded_csv_dfa):
    tables = build_tables(padded_csv_dfa, 2)
    assert isinstance(tables, StridedTables)
    with pytest.raises(AttributeError):
        tables.k = 3


class TestSupportedStrides:
    """Satellite: the supported strides are derived from one place — the
    SWAR word-dtype table — and everything that enumerates strides
    (picker, planner, word views) must stay consistent with it."""

    def test_derived_from_word_dtypes(self):
        assert SUPPORTED_STRIDES == tuple(sorted(
            (k for k in _EMISSION_WORD_DTYPES if k > 1), reverse=True))
        assert SUPPORTED_STRIDES == (8, 4, 2)

    def test_word_views_exist_exactly_for_supported(self, padded_csv_dfa):
        for k in SUPPORTED_STRIDES:
            assert build_tables(padded_csv_dfa, k).emission_words \
                is not None
        # ...and for no other stride in the practical range.
        for k in (3, 5, 6, 7):
            assert build_tables(padded_csv_dfa, k).emission_words is None

    def test_pick_stride_only_returns_supported_or_unit(self,
                                                        padded_csv_dfa):
        dfa = padded_csv_dfa
        for budget in (1, 10_000, 100_000, DEFAULT_TABLE_BUDGET, 1 << 30):
            assert pick_stride(dfa, budget) in SUPPORTED_STRIDES + (1,)

    def test_plan_segments_use_only_supported_strides(self):
        for chunk_size in range(1, 70):
            segments, unit_tail = plan_segments(chunk_size, 8)
            covered = 0
            for offset, stride in segments:
                assert stride in SUPPORTED_STRIDES
                assert offset == covered
                covered += stride
            assert covered + unit_tail == chunk_size

    def test_paper_chunk_decomposition(self):
        # 31 = 8+8+8+4+2 plus a 1-byte unit tail: 5 table gathers where
        # uniform k=4 needs 7 (and leaves a 3-byte tail).
        segments, unit_tail = plan_segments(31, 8)
        assert segments == ((0, 8), (8, 8), (16, 8), (24, 4), (28, 2))
        assert unit_tail == 1

    def test_plan_nbytes_covers_the_ladder(self, padded_csv_dfa):
        g, s = padded_csv_dfa.num_groups, padded_csv_dfa.num_states
        assert plan_nbytes(g, s, 8) == sum(
            table_nbytes(g, s, k) for k in (8, 4, 2))
        assert plan_nbytes(g, s, 2) == table_nbytes(g, s, 2)
        assert plan_nbytes(g, s, 1) == 0

    def test_build_plan_materialises_the_ladder(self, padded_csv_dfa):
        plan = build_plan(padded_csv_dfa, 8, 31)
        assert set(plan.tables) == {8, 4, 2}
        assert plan.unit_tail == 1
        assert plan.nbytes == plan_nbytes(
            padded_csv_dfa.num_groups, padded_csv_dfa.num_states, 8)


class TestTableBudgetOption:
    """Satellite: ``ParseOptions.kernel_table_budget`` reaches the auto
    stride picker and is observable as a gauge."""

    DATA = b"a,b,c\n" * 40

    def _stride_used(self, options: ParseOptions) -> float:
        metrics = MetricsRegistry()
        ParPaRawParser(options, metrics=metrics).parse(self.DATA)
        return metrics.gauges["stage.stv.stride"], \
            metrics.gauges["kernels.table_budget"]

    def test_default_budget_is_observable(self):
        stride, budget = self._stride_used(ParseOptions())
        assert budget == float(DEFAULT_TABLE_BUDGET)
        assert stride >= 2

    def test_shrunken_budget_narrows_the_stride(self):
        wide, _ = self._stride_used(ParseOptions())
        narrow, budget = self._stride_used(
            ParseOptions(kernel_table_budget=1))
        assert budget == 1.0
        assert narrow == 1.0 < wide

    def test_explicit_stride_over_budget_rejected_up_front(self):
        with pytest.raises(ParseError, match="kernel_table_budget"):
            ParseOptions(kernel_stride=2, kernel_table_budget=1)

    def test_explicit_stride_honoured_when_budget_fits(self):
        stride, _ = self._stride_used(ParseOptions(kernel_stride=2))
        assert stride == 2.0

    def test_budget_must_be_positive(self):
        with pytest.raises(ParseError):
            ParseOptions(kernel_table_budget=0)
