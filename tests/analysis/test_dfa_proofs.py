"""The DFA proof tier: minimisation is behaviour-preserving for every
shipped automaton.

Every parse substitutes the canonical minimised automaton into every
sweep; these tests machine-check the obligations
that license the substitution (equivalence, idempotence, engine
agreement, registry distinctness, and the strict-inclusion witness) via
:mod:`repro.analysis.dfaproofs`.  ``scripts/check.sh`` smokes
``verify_all`` as its own gate before the main suite.
"""

import pytest

from repro.analysis.dfaproofs import (
    ProofViolation,
    lenient_rfc4180_dfa,
    verify_all,
    verify_automaton,
    verify_distinctness,
    verify_inclusion,
)
from repro.dfa.minimize import equivalent, included
from repro.dfa.registry import REGISTERED_AUTOMATA, registered_dfas


@pytest.fixture(scope="module")
def dfas():
    return registered_dfas()


class TestRegistry:
    def test_core_dialects_registered(self):
        """The paper's automaton and the CLI-facing dialects must stay
        enrolled — dropping one silently drops its proofs."""
        assert {"rfc4180", "csv", "tsv", "pipe",
                "csv-comments"} <= set(REGISTERED_AUTOMATA)

    def test_factories_build_fresh_instances(self):
        a = REGISTERED_AUTOMATA["csv"]()
        b = REGISTERED_AUTOMATA["csv"]()
        assert a is not b


@pytest.mark.parametrize("name", sorted(REGISTERED_AUTOMATA))
class TestPerAutomaton:
    def test_obligations_hold(self, dfas, name):
        violations = verify_automaton(name, dfas[name])
        assert violations == [], "\n".join(str(v) for v in violations)


class TestAcrossAutomata:
    def test_registry_is_distinct(self, dfas):
        violations = verify_distinctness(dfas)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_strict_inclusion_witness(self):
        violations = verify_inclusion()
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_lenient_variant_separates(self, dfas):
        """The witness pair really is ordered strictly: strict ⊆ lenient
        but not conversely, and they are not equivalent."""
        strict = dfas["rfc4180"]
        lenient = lenient_rfc4180_dfa()
        assert included(strict, lenient)
        assert not included(lenient, strict)
        assert not equivalent(strict, lenient)

    def test_verify_all_is_clean(self):
        report = verify_all()
        assert set(REGISTERED_AUTOMATA) <= set(report)
        broken = {subject: [str(v) for v in violations]
                  for subject, violations in report.items() if violations}
        assert not broken


class TestTheCheckActuallyChecks:
    """The obligations must catch a genuinely broken minimiser output —
    an automaton that is NOT equivalent to csv must fail csv's proofs if
    swapped in."""

    def test_equivalence_check_catches_wrong_automaton(self, dfas):
        violations = [v for v in verify_automaton("csv", dfas["csv"])
                      if v.proof == "equivalence"]
        assert violations == []
        # tsv's canonical form is not csv's behaviour; equivalent() must
        # say so (distinctness already proved it, assert directly too).
        assert not equivalent(dfas["csv"], dfas["tsv"])

    def test_violation_renders(self):
        violation = ProofViolation("equivalence", "x", "detail")
        assert "equivalence" in str(violation) and "x" in str(violation)
