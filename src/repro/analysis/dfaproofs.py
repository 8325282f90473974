"""Machine-checked proofs about the shipped automata and their minimiser.

Companion tier to :mod:`repro.analysis.oplaws`: where the operator-law
tier licenses the *scan decomposition*, this tier licenses the *automaton
substitution* the pipeline always performs — every sweep runs over
:func:`repro.dfa.minimize.canonicalize`'s output instead of the raw
dialect DFA, so the whole parse is only correct if that substitution is
behaviour-preserving for every automaton we ship.

The proofs quantify over
:data:`repro.reference.dfa.registry.REGISTERED_AUTOMATA` (the ground truth
for "which dialects exist") and are exhaustive, not sampled: behavioural
equivalence is decided by product-automaton refinement over all 256 byte
values from every reachable state pair,
which for a DFA is a complete decision procedure.

Per registered automaton ``d``:

* **equivalence** — ``equivalent(d, canonicalize(d).dfa)``: minimisation
  preserves the byte-level Mealy behaviour (emissions, acceptance,
  invalid-sink membership) exactly.
* **idempotence** — the canonical form is a fixed point:
  ``is_canonical(canonicalize(d).dfa)``.  Without this the kernel cache's
  behavioural fingerprint would not be stable under re-canonicalisation.
* **engine agreement** — the data-parallel refinement and Hopcroft's
  worklist algorithm compute the same partition
  (:func:`repro.reference.dfa.minimize.same_partition`).  Two independent
  implementations of the same fixpoint cross-check each other.

Across automata:

* **distinctness** — no two registered automata are behaviourally
  equivalent: every registry entry earns its name.  (If a future dialect
  ever *is* equivalent to an existing one, the right fix is an alias in
  the registry, not two entries — the kernel cache would silently share
  tables between them anyway.)

And one *strictness ordering* witness:

* **inclusion** — RFC 4180 is strictly included in a hand-built lenient
  variant that tolerates bare quotes inside unquoted fields
  (:func:`lenient_rfc4180_dfa`): ``included(rfc4180, lenient)`` holds and
  the converse fails.  This exercises the one-sided product sweep
  (:func:`repro.dfa.minimize.included`) on a pair where equivalence is
  genuinely too strong.

``tests/analysis/test_dfa_proofs.py`` runs :func:`verify_all` in the test
tier; ``scripts/check.sh`` smokes it in CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dfa.automaton import Dfa, Emission
from repro.dfa.builder import DfaBuilder
from repro.dfa.minimize import (
    canonicalize,
    equivalent,
    included,
    is_canonical,
    parallel_partition,
)
from repro.reference.dfa.minimize import hopcroft_partition, same_partition
from repro.reference.dfa.registry import registered_dfas

__all__ = ["ProofViolation", "lenient_rfc4180_dfa", "verify_automaton",
           "verify_distinctness", "verify_inclusion", "verify_all"]


@dataclass(frozen=True)
class ProofViolation:
    """One failed proof obligation."""

    #: ``"equivalence"``, ``"idempotence"``, ``"engine-agreement"``,
    #: ``"distinctness"`` or ``"inclusion"``.
    proof: str
    #: Registry name(s) of the automaton/automata involved.
    subject: str
    #: Human-readable statement of what failed.
    detail: str

    def __str__(self) -> str:
        return f"{self.proof}[{self.subject}]: {self.detail}"


def lenient_rfc4180_dfa() -> Dfa:
    """RFC 4180 with bare quotes inside unquoted fields allowed as data.

    Identical to :func:`repro.dfa.csv.rfc4180_dfa` except the Table 1
    transition ``FLD --"--> INV`` becomes ``FLD --"--> FLD`` emitting
    DATA.  Every input RFC 4180 accepts, this automaton parses with
    byte-identical emissions; it additionally accepts inputs like
    ``a"b,c`` that RFC 4180 rejects — a strict behavioural superset,
    which is exactly the shape :func:`repro.dfa.minimize.included`
    certifies.
    """
    b = DfaBuilder()
    b.state("EOR", accepting=True)
    b.state("ENC")
    b.state("FLD", accepting=True)
    b.state("EOF", accepting=True)
    b.state("ESC", accepting=True)
    b.invalid_state("INV")
    b.group("EOL", b"\n")
    b.group("QUOTE", b'"')
    b.group("DELIM", b",")
    b.catch_all("OTHER")
    data = Emission.DATA
    control = Emission.CONTROL
    for state in ("EOR", "FLD", "EOF", "ESC"):
        b.transition(state, "EOL", "EOR", Emission.RECORD_DELIMITER)
        b.transition(state, "DELIM", "EOF", Emission.FIELD_DELIMITER)
    for state in ("EOR", "EOF"):
        b.transition(state, "OTHER", "FLD", data)
        b.transition(state, "QUOTE", "ENC", control)
    b.transition("FLD", "OTHER", "FLD", data)
    b.transition("FLD", "QUOTE", "FLD", data)  # the one lenient edge
    b.transition("ENC", "EOL", "ENC", data)
    b.transition("ENC", "DELIM", "ENC", data)
    b.transition("ENC", "OTHER", "ENC", data)
    b.transition("ENC", "QUOTE", "ESC", control)
    b.transition("ESC", "QUOTE", "ENC", data)
    b.start("EOR")
    return b.build()


def verify_automaton(name: str, dfa: Dfa) -> list[ProofViolation]:
    """Per-automaton obligations: equivalence, idempotence, agreement."""
    violations = []
    canon = canonicalize(dfa)
    if not equivalent(dfa, canon.dfa):
        violations.append(ProofViolation(
            "equivalence", name,
            f"canonical form ({canon.dfa.num_states} states) is not "
            f"behaviourally equivalent to the source "
            f"({dfa.num_states} states)"))
    if not is_canonical(canon.dfa):
        violations.append(ProofViolation(
            "idempotence", name,
            "canonicalize(canonicalize(d).dfa) differs from "
            "canonicalize(d).dfa — the canonical form is not a fixed "
            "point"))
    if not same_partition(parallel_partition(dfa), hopcroft_partition(dfa)):
        violations.append(ProofViolation(
            "engine-agreement", name,
            "data-parallel refinement and Hopcroft's algorithm computed "
            "different state partitions"))
    return violations


def verify_distinctness(dfas: dict[str, Dfa]) -> list[ProofViolation]:
    """No two registered automata may be behaviourally equivalent."""
    violations = []
    names = sorted(dfas)
    for i, name_a in enumerate(names):  # parlint: disable=PPR401 -- pairwise sweep over the ~7-entry registry, not input data
        for name_b in names[i + 1:]:
            if equivalent(dfas[name_a], dfas[name_b]):
                violations.append(ProofViolation(
                    "distinctness", f"{name_a},{name_b}",
                    "two registry entries are behaviourally equivalent; "
                    "alias one to the other instead"))
    return violations


def verify_inclusion() -> list[ProofViolation]:
    """RFC 4180 ⊂ lenient RFC 4180, strictly."""
    violations = []
    strict = registered_dfas()["rfc4180"]
    lenient = lenient_rfc4180_dfa()
    if not included(strict, lenient):
        violations.append(ProofViolation(
            "inclusion", "rfc4180,lenient-rfc4180",
            "rfc4180 is not included in its lenient variant"))
    if included(lenient, strict):
        violations.append(ProofViolation(
            "inclusion", "lenient-rfc4180,rfc4180",
            "inclusion is not strict: the lenient variant is included "
            "in rfc4180 (bare-quote inputs should separate them)"))
    if equivalent(strict, lenient):
        violations.append(ProofViolation(
            "inclusion", "rfc4180,lenient-rfc4180",
            "strict and lenient variants are equivalent; the lenient "
            "edge changed nothing"))
    return violations


def verify_all() -> dict[str, list[ProofViolation]]:
    """Every proof obligation; ``{subject: [violations]}``, empty lists
    meaning the obligation holds."""
    dfas = registered_dfas()
    report = {name: verify_automaton(name, dfa)
              for name, dfa in sorted(dfas.items())}
    report["<distinctness>"] = verify_distinctness(dfas)
    report["<inclusion>"] = verify_inclusion()
    return report
