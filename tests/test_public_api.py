"""Packaging-level tests: the public API surface is importable and sane."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_all_entries_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.dfa", "repro.exec", "repro.obs", "repro.scan",
        "repro.plan", "repro.streaming", "repro.baselines",
        "repro.workloads", "repro.columnar", "repro.utils",
        "repro.reference", "repro.__main__",
    ])
    def test_subpackages_import(self, module):
        imported = importlib.import_module(module)
        assert imported is not None

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.dfa", "repro.exec", "repro.obs", "repro.scan",
        "repro.plan", "repro.streaming", "repro.baselines",
        "repro.workloads", "repro.columnar", "repro.utils",
        "repro.reference",
    ])
    def test_subpackage_all_resolves(self, module):
        imported = importlib.import_module(module)
        for name in getattr(imported, "__all__", []):
            assert hasattr(imported, name), f"{module}.{name}"

    def test_quickstart_from_readme(self):
        from repro import parse_bytes
        result = parse_bytes(b'id,name\n1,"Billy, the bookcase"\n')
        assert result.table.to_pylist() == [
            {"col0": "id", "col1": "name"},
            {"col0": "1", "col1": "Billy, the bookcase"},
        ]

    def test_exceptions_exported(self):
        from repro import ParseError, ReproError
        assert issubclass(ParseError, ReproError)

    def test_docstrings_on_public_symbols(self):
        undocumented = [name for name in repro.__all__
                        if name != "__version__"
                        and not (getattr(repro, name).__doc__ or "").strip()]
        assert undocumented == []
