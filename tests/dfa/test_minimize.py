"""DFA minimisation: partitions, canonical forms, equivalence, inclusion.

The tentpole machinery of :mod:`repro.dfa.minimize` carries three
load-bearing claims, each tested here: (1) both partition engines —
Hopcroft's worklist and the data-parallel scan-shaped refinement —
compute the *coarsest* Mealy-consistent partition and agree with each
other; (2) :func:`canonicalize` is a behaviour-preserving idempotent
normal form, so behaviourally equivalent automata get bit-identical
canonical tables; (3) :func:`equivalent` / :func:`included` decide
byte-level behavioural equality/ordering exactly.
"""

import numpy as np
import pytest

from repro.dfa import (
    Dfa,
    DfaBuilder,
    Dialect,
    Emission,
    dialect_dfa,
    rfc4180_dfa,
)
from repro.dfa.minimize import (
    Minimization,
    _canonical_from_labels,
    canonicalize,
    equivalent,
    included,
    minimize,
    parallel_partition,
    structural_digest,
)
from repro.reference.dfa.minimize import (hopcroft_partition, is_canonical,
                                          same_partition)
ALL_DIALECTS = [
    Dialect(strip_carriage_return=False),
    Dialect.csv(),
    Dialect.tsv(),
    Dialect.pipe(),
    Dialect.csv_with_comments(),
    Dialect(escape=b"\\", quote=None, strip_carriage_return=False),
    Dialect(delimiter=b";", comment=b"#"),
]


def simulate_bytes(dfa: Dfa, data: bytes):
    """Scalar reference run: (final state, emission list, first invalid)."""
    state = dfa.start_state
    emissions = []
    first_invalid = None
    for i, byte in enumerate(data):
        if dfa.invalid_state is not None and state == dfa.invalid_state \
                and first_invalid is None:
            first_invalid = i
        group = int(dfa.symbol_groups[byte])
        emissions.append(int(dfa.emissions[state, group]))
        state = int(dfa.transitions[group, state])
    return state, emissions, first_invalid


CORPUS = [
    b"",
    b"a,b\nc,d\n",
    b'"a,b","c\nd"\n',
    b'a"bad\n',
    b"x|y\tz\n",
    b"# comment\nv,w\n",
    b"a\\,b\n",
    b"trailing,",
]


class TestPartitionEngines:
    @pytest.mark.parametrize("dialect", ALL_DIALECTS,
                             ids=lambda d: f"{d.delimiter!r}-{d.quote!r}"
                                           f"-{d.comment!r}")
    def test_engines_agree(self, dialect):
        dfa = dialect_dfa(dialect)
        assert same_partition(parallel_partition(dfa),
                              hopcroft_partition(dfa))

    def test_rfc4180_merges_eor_eof(self):
        # EOR and EOF behave identically in RFC 4180 (Table 1 rows are
        # equal); the coarsest partition must merge them.
        dfa = rfc4180_dfa()
        labels = parallel_partition(dfa)
        names = dfa.state_names
        assert labels[names.index("EOR")] == labels[names.index("EOF")]
        assert labels[names.index("EOR")] != labels[names.index("FLD")]

    def test_single_state_collapse(self):
        # A quote-less no-CR automaton distinguishes states only through
        # emissions; all of EOR/FLD/EOF behave identically.
        dfa = dialect_dfa(Dialect(delimiter=b"|", quote=None,
                                  strip_carriage_return=False))
        labels = parallel_partition(dfa)
        assert int(labels.max()) + 1 < dfa.num_states

    def test_partition_never_merges_across_emissions(self):
        dfa = rfc4180_dfa()
        labels = parallel_partition(dfa)
        for a in range(dfa.num_states):
            for b in range(a + 1, dfa.num_states):
                if labels[a] == labels[b]:
                    np.testing.assert_array_equal(dfa.emissions[a],
                                                  dfa.emissions[b])


class TestCanonicalForm:
    @pytest.mark.parametrize("dialect", ALL_DIALECTS,
                             ids=lambda d: f"{d.delimiter!r}-{d.quote!r}"
                                           f"-{d.comment!r}")
    def test_behaviour_preserved(self, dialect):
        source = dialect_dfa(dialect)
        canon = canonicalize(source)
        assert equivalent(source, canon.dfa)
        for data in CORPUS:
            sf, se, si = simulate_bytes(source, data)
            cf, ce, ci = simulate_bytes(canon.dfa, data)
            assert se == ce
            assert si == ci
            # Final states correspond through the class maps.
            assert canon.state_map[sf] == cf
            assert int(canon.state_rep[cf]) in \
                np.flatnonzero(canon.state_map == cf)

    @pytest.mark.parametrize("dialect", ALL_DIALECTS,
                             ids=lambda d: f"{d.delimiter!r}-{d.quote!r}"
                                           f"-{d.comment!r}")
    def test_idempotent(self, dialect):
        canon = canonicalize(dialect_dfa(dialect))
        assert is_canonical(canon.dfa)
        again = minimize(canon.dfa)
        assert again.states_merged == 0
        assert again.groups_merged == 0

    def test_start_state_is_zero(self):
        for dialect in ALL_DIALECTS:
            assert canonicalize(dialect_dfa(dialect)).dfa.start_state == 0

    def test_rfc4180_canonical_shape(self):
        canon = canonicalize(rfc4180_dfa())
        assert canon.source.num_states == 6
        assert canon.dfa.num_states == 5       # EOR+EOF merged
        assert canon.states_merged == 1
        assert canon.dfa.num_groups == 4

    def test_pipe_collapses_to_one_state(self):
        dfa = dialect_dfa(Dialect(delimiter=b"|", quote=None,
                                  strip_carriage_return=False))
        canon = canonicalize(dfa)
        assert canon.dfa.num_states == 1
        assert canon.dfa.num_groups == 3       # EOL, DELIM, OTHER
        assert canon.dfa.invalid_state is None

    def test_unreachable_states_pruned(self):
        b = DfaBuilder()
        b.state("A", accepting=True)
        b.state("ORPHAN")                      # nothing reaches it
        b.group("X", b"x")
        b.catch_all("REST")
        b.transition("A", "X", "A", Emission.DATA)
        b.transition("A", "REST", "A", Emission.DATA)
        b.transition("ORPHAN", "X", "A", Emission.CONTROL)
        b.transition("ORPHAN", "REST", "ORPHAN", Emission.DATA)
        b.start("A")
        canon = canonicalize(b.build())
        assert canon.dfa.num_states == 1
        assert canon.state_map[1] == -1        # ORPHAN pruned

    def test_equivalent_sources_get_identical_tables(self):
        # Structurally different, behaviourally equal automata must end
        # on bit-identical canonical transition/emission tables.
        a = canonicalize(rfc4180_dfa()).dfa
        b = canonicalize(dialect_dfa(Dialect(strip_carriage_return=False))
                         ).dfa
        np.testing.assert_array_equal(a.transitions, b.transitions)
        np.testing.assert_array_equal(a.emissions, b.emissions)
        np.testing.assert_array_equal(a.symbol_groups, b.symbol_groups)

    def test_canonicalize_is_cached(self):
        dfa = rfc4180_dfa()
        assert canonicalize(dfa) is canonicalize(dfa)

    def test_digest_distinguishes_structure(self):
        a = rfc4180_dfa()
        b = dialect_dfa(Dialect.csv())
        assert structural_digest(a) != structural_digest(b)
        assert structural_digest(a) == structural_digest(rfc4180_dfa())

    def test_hopcroft_labels_render_same_canonical_form(self):
        dfa = rfc4180_dfa()
        p = minimize(dfa)
        h = _canonical_from_labels(dfa, hopcroft_partition(dfa))
        assert isinstance(p, Minimization) and isinstance(h, Minimization)
        np.testing.assert_array_equal(p.state_map, h.state_map)


class TestEquivalence:
    def test_reflexive(self):
        for dialect in ALL_DIALECTS:
            dfa = dialect_dfa(dialect)
            assert equivalent(dfa, dfa)

    def test_distinguishes_dialects(self):
        assert not equivalent(dialect_dfa(Dialect.csv()),
                              dialect_dfa(Dialect.tsv()))

    def test_cr_handling_matters(self):
        # rfc4180 (no CR group) classifies \r as DATA; the CR-stripping
        # variant treats it as control — behaviourally different.
        assert not equivalent(rfc4180_dfa(), dialect_dfa(Dialect.csv()))
        assert equivalent(
            rfc4180_dfa(),
            dialect_dfa(Dialect(strip_carriage_return=False)))

    def test_detects_single_emission_change(self):
        base = rfc4180_dfa()
        emissions = base.emissions.copy()
        emissions[2, 3] = Emission.CONTROL.value  # FLD/OTHER flipped
        twisted = Dfa(
            state_names=base.state_names,
            symbol_groups=base.symbol_groups.copy(),
            group_names=base.group_names,
            transitions=base.transitions.copy(),
            emissions=emissions,
            start_state=base.start_state,
            accepting=base.accepting,
            invalid_state=base.invalid_state,
        )
        assert not equivalent(base, twisted)


class TestInclusion:
    def test_every_dfa_includes_itself(self):
        dfa = rfc4180_dfa()
        assert included(dfa, dfa)

    def test_strict_superset(self):
        strict = rfc4180_dfa()
        lenient_dialect = dialect_dfa(
            Dialect(quote=None, strip_carriage_return=False))
        # Quote-less CSV treats '"' as data — but it also treats quoted
        # delimiters as real delimiters, so neither includes the other.
        assert not included(strict, lenient_dialect)
        assert not included(lenient_dialect, strict)

    def test_inclusion_is_ordered(self):
        from repro.analysis.dfaproofs import lenient_rfc4180_dfa
        strict = rfc4180_dfa()
        lenient = lenient_rfc4180_dfa()
        assert included(strict, lenient)
        assert not included(lenient, strict)
