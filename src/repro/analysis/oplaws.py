"""Monoid-law verification for the pipeline's scan operators.

Every prefix-scan decomposition in ParPaRaw is licensed by exactly one
algebraic fact: the combining operator is **associative with an
identity** (paper §2).  The state-transition-vector composition (§3.1)
and the rel/abs column-offset operator (§3.2) are the two load-bearing
instances — if either law broke, the chunk-parallel (and, one level up,
the shard-parallel) context resolution would silently produce wrong
parses for *some* chunk boundary placement.

This module machine-checks the laws **exhaustively over all triples of a
small domain** rather than by random sampling.  For the STV composition
the domain — *all* functions on a 3-state set — is moreover **closed**
under the operator, so the exhaustive check is a genuine proof of the
laws on that domain, and structurally complete: composition is function
composition, which behaves identically for any state count.  For
operators over unbounded carriers (sums, offsets) no finite closed
domain exists; there the domains are chosen to exercise every control
path (sign mixes, rel/abs kind combinations, segment-flag combinations)
and the check is an exhaustive sweep of the sample's triples.

:data:`LAW_SPECS` is the registry the ``operator-laws`` lint checker
cross-references: a monoid-shaped class (defines ``combine`` and
``identity``) anywhere in the source tree must have a spec here, which
both documents its intended domain and enrols it in the law test tier
(``tests/analysis/test_operator_laws.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Sequence

from repro.reference.scan.operators import (
    ColumnOffset,
    ColumnOffsetMonoid,
    MaxMonoid,
    MinMonoid,
    SumMonoid,
    TransitionComposeMonoid,
)
from repro.reference.scan.segmented import SegmentedMonoid

__all__ = ["LawSpec", "LAW_SPECS", "LawViolation", "check_monoid_laws",
           "verify_all_registered"]


@dataclass(frozen=True)
class LawViolation:
    """One broken instance of a monoid law."""

    #: ``"identity-left"``, ``"identity-right"`` or ``"associativity"``.
    law: str
    #: The operands that witnessed the violation.
    operands: tuple[Any, ...]
    #: The two unequal results.
    left_result: Any
    right_result: Any

    def __str__(self) -> str:
        return (f"{self.law} violated for operands {self.operands!r}: "
                f"{self.left_result!r} != {self.right_result!r}")


@dataclass(frozen=True)
class LawSpec:
    """A registered operator: how to build it and its exhaustive domain."""

    #: Class name as it appears in source (the lint checker's key).
    class_name: str
    #: Module the class is defined in.
    module: str
    #: Builds a fresh operator instance.
    factory: Callable[[], Any]
    #: Builds the closed, exhaustively checkable domain.
    domain: Callable[[], Sequence[Any]]
    #: Why this domain proves the laws (documentation, shown in reports).
    rationale: str
    #: Whether the domain is closed under ``combine`` (and contains the
    #: identity) — when True, the exhaustive sweep is a proof of the laws
    #: restricted to the domain, not just a strong property check.
    closed: bool = False


def _stv_domain(num_states: int = 3) -> list[tuple[int, ...]]:
    """All ``num_states ** num_states`` state-transition vectors."""
    return [vec for vec in product(range(num_states), repeat=num_states)]


def _offset_domain(max_value: int = 3) -> list[ColumnOffset]:
    values = range(max_value + 1)
    return ([ColumnOffset.relative(v) for v in values]
            + [ColumnOffset.absolute(v) for v in values])


def _segmented_domain(max_value: int = 2) -> list[tuple[bool, int]]:
    return [(flag, value) for flag in (False, True)
            for value in range(max_value + 1)]


def _int_domain() -> list[int]:
    return [-3, -1, 0, 1, 2, 5]


LAW_SPECS: dict[str, LawSpec] = {spec.class_name: spec for spec in (
    LawSpec(
        class_name="TransitionComposeMonoid",
        module="repro.reference.scan.operators",
        factory=lambda: TransitionComposeMonoid(3),
        domain=lambda: _stv_domain(3),
        rationale="all 27 functions on a 3-state set; composition is "
                  "function composition, so the argument is independent "
                  "of the state count (paper §3.1)",
        closed=True,
    ),
    LawSpec(
        class_name="ColumnOffsetMonoid",
        module="repro.reference.scan.operators",
        factory=ColumnOffsetMonoid,
        domain=lambda: _offset_domain(3),
        rationale="every rel/abs kind with offsets 0..3; the operator "
                  "only inspects the kind and adds values, so small "
                  "offsets exercise every control path (paper §3.2)",
    ),
    LawSpec(
        class_name="SumMonoid",
        module="repro.reference.scan.operators",
        factory=SumMonoid,
        domain=_int_domain,
        rationale="integer addition over a sign-mixed sample",
    ),
    LawSpec(
        class_name="MaxMonoid",
        module="repro.reference.scan.operators",
        factory=MaxMonoid,
        domain=_int_domain,
        rationale="max over a sign-mixed sample (identity is the "
                  "sentinel minimum)",
    ),
    LawSpec(
        class_name="MinMonoid",
        module="repro.reference.scan.operators",
        factory=MinMonoid,
        domain=_int_domain,
        rationale="min over a sign-mixed sample (identity is the "
                  "sentinel maximum)",
    ),
    LawSpec(
        class_name="SegmentedMonoid",
        module="repro.reference.scan.segmented",
        factory=lambda: SegmentedMonoid(SumMonoid()),
        domain=lambda: _segmented_domain(2),
        rationale="the segmented lift over addition: every flag "
                  "combination with values 0..2 exercises both the "
                  "reset and the accumulate branch",
    ),
)}


def check_monoid_laws(monoid: Any, domain: Sequence[Any],
                      max_violations: int = 5) -> list[LawViolation]:
    """Exhaustively check identity and associativity over ``domain``.

    Returns at most ``max_violations`` violations (empty = laws hold on
    the full domain).  Cost is ``O(|domain| ** 3)`` combines — keep
    domains small and closed.
    """
    violations: list[LawViolation] = []
    identity = monoid.identity()

    for x in domain:
        if monoid.combine(identity, x) != x:
            violations.append(LawViolation(
                "identity-left", (x,), monoid.combine(identity, x), x))
        if monoid.combine(x, identity) != x:
            violations.append(LawViolation(
                "identity-right", (x,), monoid.combine(x, identity), x))
        if len(violations) >= max_violations:
            return violations[:max_violations]

    for x, y, z in product(domain, repeat=3):
        left = monoid.combine(monoid.combine(x, y), z)
        right = monoid.combine(x, monoid.combine(y, z))
        if left != right:
            violations.append(LawViolation(
                "associativity", (x, y, z), left, right))
            if len(violations) >= max_violations:
                break
    return violations[:max_violations]


def verify_all_registered() -> dict[str, list[LawViolation]]:
    """Run the laws for every registered operator.

    Returns a mapping of class name to violations; all-empty values mean
    every registered scan operator is a lawful monoid on its domain.
    """
    return {name: check_monoid_laws(spec.factory(), spec.domain())
            for name, spec in LAW_SPECS.items()}
