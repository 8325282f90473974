"""Checker: public-API hygiene and layering (PPR5xx).

Two families of rules:

* ``__all__`` consistency — **PPR501** an ``__all__`` entry that names
  nothing defined or imported in the module, **PPR502** a duplicate
  ``__all__`` entry, **PPR504** a public module (not ``__init__`` /
  ``__main__`` / ``_private``) with no ``__all__`` at all.
* Cross-layer imports — **PPR503**.  The repo's packages form a strict
  DAG (kernel utilities at the bottom, orchestration at the top); an
  import against that DAG couples layers that the stacked-PR roadmap
  needs to stay independently replaceable (e.g. ``repro.core`` must not
  import ``repro.exec`` — executors depend on the pipeline, never the
  reverse).  The full import graph, including imports inside function
  bodies, is checked; deliberate lazy imports that would otherwise form
  a cycle carry explicit waivers.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register

__all__ = ["ApiHygieneChecker", "ALLOWED_LAYER_IMPORTS"]

#: Kernel-level packages any layer may use.
_KERNEL = frozenset({"repro.errors", "repro.utils"})

#: package -> packages it may import (in addition to _KERNEL and itself).
#: Packages absent from this table (the root package, __main__, tools)
#: are unconstrained.
ALLOWED_LAYER_IMPORTS: dict[str, frozenset[str]] = {
    "repro.errors": frozenset(),
    "repro.utils": frozenset(),
    "repro.obs": frozenset(),
    "repro.scan": frozenset(),
    # The columnar buffer layer sits just above the scan primitives: its
    # structural ops (offset rebase, gather) are built on exclusive_sum.
    "repro.columnar": frozenset({"repro.scan"}),
    # DFA minimisation's data-parallel partition refinement is scan-shaped
    # (dense relabelling via inclusive_sum), so the automaton layer may use
    # the scan primitives; repro.scan remains a leaf and never imports back.
    "repro.dfa": frozenset({"repro.scan"}),
    "repro.kernels": frozenset({"repro.dfa", "repro.obs"}),
    "repro.core": frozenset({"repro.scan", "repro.columnar", "repro.dfa",
                             "repro.kernels", "repro.obs"}),
    "repro.exec": frozenset({"repro.scan", "repro.columnar", "repro.dfa",
                             "repro.kernels", "repro.core", "repro.obs"}),
    "repro.streaming": frozenset({"repro.scan", "repro.columnar",
                                  "repro.dfa", "repro.kernels",
                                  "repro.core", "repro.exec",
                                  "repro.obs"}),
    # The planner closes the obs -> options loop: it prices
    # configurations from observed timings and builds ParseOptions — but
    # repro.core never imports it back (the parser reaches the default
    # planner through a registered factory).
    "repro.plan": frozenset({"repro.scan", "repro.columnar", "repro.dfa",
                             "repro.kernels", "repro.core", "repro.obs"}),
    # The service sits at the top of the stack: it may orchestrate
    # everything below it, and nothing below may import it back.
    "repro.serve": frozenset({"repro.scan", "repro.columnar",
                              "repro.dfa", "repro.kernels", "repro.core",
                              "repro.exec", "repro.obs",
                              "repro.streaming", "repro.plan"}),
    "repro.baselines": frozenset({"repro.scan", "repro.columnar",
                                  "repro.dfa", "repro.core"}),
    "repro.workloads": frozenset({"repro.scan", "repro.columnar",
                                  "repro.dfa", "repro.core"}),
    # Test oracles and figure code: they may use any production layer,
    # and no production package may import them back (the root package
    # and __main__ are outside this table; only `simulate` loads the
    # Titan X model and the Figure 7 simulator, inside the function).
    "repro.reference": frozenset({"repro.scan", "repro.columnar",
                                  "repro.dfa", "repro.kernels",
                                  "repro.core", "repro.obs"}),
    "repro.analysis": frozenset({"repro.scan", "repro.columnar",
                                 "repro.dfa", "repro.core", "repro.exec",
                                 "repro.reference"}),
}


def _package_of(module_name: str) -> str:
    parts = module_name.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module_name


def _imported_repro_modules(tree: ast.Module):
    """``(lineno, dotted_module)`` for every repro.* import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module and node.module.split(".")[0] == "repro":
                yield node.lineno, node.module


def _defined_names(tree: ast.Module) -> set[str]:
    """Top-level names a module actually binds (defs, classes, imports,
    assignments)."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Names bound under guards (TYPE_CHECKING, optional deps).
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                    names.add(sub.name)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            names.add(alias.asname
                                      or alias.name.split(".")[0])
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
    return names


def _dunder_all(tree: ast.Module):
    """``(lineno, [entries])`` of the module's ``__all__``, if literal."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets) \
                and isinstance(stmt.value, (ast.List, ast.Tuple)):
            entries = []
            for element in stmt.value.elts:
                if isinstance(element, ast.Constant) \
                        and isinstance(element.value, str):
                    entries.append((element.lineno, element.value))
            return stmt.lineno, entries
    return None


@register
class ApiHygieneChecker(Checker):
    name = "api-hygiene"
    codes = {
        "PPR501": "__all__ names something the module does not define",
        "PPR502": "duplicate entry in __all__",
        "PPR503": "import violates the package layering DAG",
        "PPR504": "public module defines no __all__",
    }

    def check(self, module):
        yield from self._check_all(module)
        yield from self._check_layering(module)

    # -- __all__ -----------------------------------------------------------

    def _check_all(self, module):
        basename = module.path.name
        found = _dunder_all(module.tree)
        if found is None:
            if basename not in ("__init__.py", "__main__.py") \
                    and not basename.startswith("_"):
                yield self.diagnostic(
                    module, 1, "PPR504",
                    "public module defines no __all__; declare the "
                    "intended public surface explicitly")
            return
        _, entries = found
        defined = _defined_names(module.tree)
        seen: set[str] = set()
        for lineno, entry in entries:
            if entry in seen:
                yield self.diagnostic(
                    module, lineno, "PPR502",
                    f"duplicate __all__ entry {entry!r}")
            seen.add(entry)
            if entry not in defined:
                yield self.diagnostic(
                    module, lineno, "PPR501",
                    f"__all__ names {entry!r}, which the module does "
                    f"not define or import")

    # -- layering ----------------------------------------------------------

    def _check_layering(self, module):
        if module.module is None:
            return
        package = _package_of(module.module)
        allowed = ALLOWED_LAYER_IMPORTS.get(package)
        if allowed is None:
            return
        permitted = allowed | _KERNEL | {package}
        for lineno, imported in _imported_repro_modules(module.tree):
            target = _package_of(imported)
            if target == "repro":  # the root namespace itself
                continue
            if target not in permitted:
                yield self.diagnostic(
                    module, lineno, "PPR503",
                    f"{package} must not import {target} (layering: "
                    f"{package} may use "
                    f"{', '.join(sorted(allowed)) or 'kernel only'})")
