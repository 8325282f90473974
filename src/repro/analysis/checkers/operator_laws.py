"""Checker: every scan operator is a registered, lawful monoid (PPR2xx).

The prefix-scan decomposition of paper §2 is only valid for associative
operators with an identity.  This checker closes the loop between the
code and that precondition:

* **PPR201** — a monoid-shaped class (defines both ``combine`` and
  ``identity``) is not enrolled in the law registry
  (:data:`repro.analysis.oplaws.LAW_SPECS`).  Registration is what puts
  an operator under the exhaustive associativity+identity property
  checks of the law test tier, so an unregistered operator is an
  unproven scan precondition.
* **PPR202** — a registered operator *fails* its laws on the registered
  domain.  The checker actually executes the exhaustive check when it
  encounters the defining class, so ``parparaw lint`` itself proves the
  STV-composition and rel/abs-offset laws on every run (the test tier
  re-proves them under pytest).

``typing.Protocol`` classes (the
:class:`~repro.reference.scan.operators.Monoid` structural type itself)
are exempt — they declare the shape, they are not operators.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import base_names
from repro.analysis.registry import Checker, register

__all__ = ["OperatorLawChecker"]


def _is_monoid_shaped(cls: ast.ClassDef) -> bool:
    methods = {stmt.name for stmt in cls.body
               if isinstance(stmt, ast.FunctionDef)}
    return "combine" in methods and "identity" in methods


def _is_protocol(cls: ast.ClassDef) -> bool:
    return any(base in ("Protocol", "ABC") for base in base_names(cls))


@register
class OperatorLawChecker(Checker):
    name = "operator-laws"
    codes = {
        "PPR201": "monoid-shaped class is not enrolled in the "
                  "scan-operator law registry (oplaws.LAW_SPECS)",
        "PPR202": "registered scan operator violates the monoid laws "
                  "on its registered domain",
    }

    def check(self, module):
        monoids = [node for node in module.tree.body
                   if isinstance(node, ast.ClassDef)
                   and _is_monoid_shaped(node)
                   and not _is_protocol(node)]
        if not monoids:
            return
        from repro.analysis.oplaws import LAW_SPECS, check_monoid_laws

        for cls in monoids:
            spec = LAW_SPECS.get(cls.name)
            if spec is None or spec.module != module.module:
                yield self.diagnostic(
                    module, cls.lineno, "PPR201",
                    f"{cls.name!r} defines combine/identity but is not "
                    f"registered in repro.analysis.oplaws.LAW_SPECS; "
                    f"scan operators must carry exhaustive "
                    f"associativity+identity checks (paper §2)")
                continue
            violations = check_monoid_laws(spec.factory(), spec.domain())
            for violation in violations:
                yield self.diagnostic(
                    module, cls.lineno, "PPR202",
                    f"{cls.name!r}: {violation}")
