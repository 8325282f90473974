"""parlint self-tests: the corpus must fail, the source tree must pass."""

import io
import json
import pathlib

import pytest

from repro.analysis import all_checkers, all_codes, lint_paths, main
from repro.analysis.driver import load_module

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CORPUS = REPO_ROOT / "tests" / "analysis" / "corpus"
SRC = REPO_ROOT / "src"


def codes_in(path) -> list[str]:
    return [d.code for d in lint_paths([path]).diagnostics]


class TestCorpus:
    """Each checker must catch its known-bad snippet."""

    def test_stage_contract(self):
        codes = codes_in(CORPUS / "bad_stage_contract.py")
        assert "PPR101" in codes
        assert "PPR102" in codes
        assert "PPR103" in codes

    def test_operator_laws(self):
        codes = codes_in(CORPUS / "bad_monoid.py")
        assert "PPR201" in codes

    def test_mp_safety(self):
        codes = codes_in(CORPUS / "bad_mp_safety.py")
        assert "PPR301" in codes
        assert "PPR302" in codes
        assert "PPR303" in codes
        assert "PPR304" in codes

    def test_hot_loops(self):
        codes = codes_in(CORPUS / "bad_hot_loop.py")
        assert codes.count("PPR401") == 2, \
            "two loops flagged, the waived one silent"

    def test_api_hygiene(self):
        codes = codes_in(CORPUS / "bad_api_hygiene.py")
        assert "PPR501" in codes
        assert "PPR502" in codes
        assert "PPR503" in codes
        codes = codes_in(CORPUS / "bad_no_all.py")
        assert "PPR504" in codes

    def test_production_imports_reference(self):
        codes = codes_in(CORPUS / "bad_reference_import.py")
        assert codes == ["PPR503"]

    def test_buffer_mutation(self):
        codes = codes_in(CORPUS / "bad_buffer_mutation.py")
        assert codes.count("PPR601") == 5, \
            "five mutation sites flagged, the waived one silent"
        assert codes.count("PPR602") == 4
        assert codes.count("PPR603") == 2
        assert not [c for c in codes if not c.startswith("PPR6")]

    def test_buffer_escape(self):
        codes = codes_in(CORPUS / "bad_buffer_escape.py")
        assert codes.count("PPR604") == 4, \
            "returns-borrowed hand-out and copies stay silent"
        assert codes.count("PPR605") == 2
        assert codes.count("PPR606") == 1

    def test_pragma_placement(self):
        codes = codes_in(CORPUS / "pragma_placement.py")
        assert codes == ["PPR303", "PPR601", "PPR601"], \
            "markers above decorators honoured; multi-line waiver silent"

    def test_corpus_fails_via_cli(self):
        out = io.StringIO()
        assert main([str(CORPUS)], out=out) == 1

    def test_every_checker_has_a_corpus_case(self):
        hit = set()
        for diag in lint_paths([CORPUS]).diagnostics:
            hit.add(diag.checker)
        assert hit == {c.name for c in all_checkers()}


class TestSourceTree:
    """The shipped source must be violation-free (fixed or waived)."""

    def test_src_is_clean(self):
        result = lint_paths([SRC])
        assert result.ok, "\n".join(
            d.format() for d in result.diagnostics)
        assert result.files_checked > 50

    def test_src_clean_via_cli(self):
        out = io.StringIO()
        assert main([str(SRC)], out=out) == 0
        assert "0 finding(s)" in out.getvalue()


class TestWaivers:
    def test_line_waiver_silences_one_code(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "__all__ = ['ghost']  # parlint: disable=PPR501 -- testing\n")
        assert codes_in(bad) == []

    def test_line_waiver_is_code_specific(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "__all__ = ['ghost']  # parlint: disable=PPR502 -- wrong code\n")
        assert codes_in(bad) == ["PPR501"]

    def test_bare_disable_waives_every_code(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("__all__ = ['ghost']  # parlint: disable\n")
        assert codes_in(bad) == []

    def test_file_waiver(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("# parlint: disable-file=PPR504 -- scratch file\n"
                       "x = 1\n")
        assert codes_in(bad) == []

    def test_skip_file(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("# parlint: skip-file\nimport repro.exec\n")
        assert codes_in(bad) == []


class TestDriver:
    def test_json_output_shape(self):
        out = io.StringIO()
        assert main([str(CORPUS / "bad_no_all.py")],
                    output_format="json", out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["files_checked"] == 1
        assert payload["diagnostic_count"] == len(payload["diagnostics"])
        diag = payload["diagnostics"][0]
        assert set(diag) >= {"path", "line", "code", "message", "checker"}

    def test_list_codes_covers_registry(self):
        out = io.StringIO()
        assert main([], list_codes=True, out=out) == 0
        text = out.getvalue()
        for code in all_codes():
            assert code in text

    def test_missing_path_is_usage_error(self):
        assert main(["/nonexistent/nowhere.py"]) == 2

    def test_syntax_error_is_usage_error(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2

    def test_diagnostics_are_sorted(self):
        diags = lint_paths([CORPUS]).diagnostics
        keys = [(d.path, d.line, d.code) for d in diags]
        assert keys == sorted(keys)

    def test_select_keeps_only_matching_codes(self):
        out = io.StringIO()
        assert main([str(CORPUS / "bad_hot_loop.py")],
                    select="PPR4", out=out) == 1
        out = io.StringIO()
        assert main([str(CORPUS / "bad_hot_loop.py")],
                    select="PPR5,PPR6", out=out) == 0
        assert "0 finding(s)" in out.getvalue()

    def test_ignore_drops_matching_codes(self):
        out = io.StringIO()
        assert main([str(CORPUS / "bad_hot_loop.py")],
                    ignore="PPR401", out=out) == 0

    def test_github_format(self):
        out = io.StringIO()
        assert main([str(CORPUS / "bad_no_all.py")],
                    output_format="github", out=out) == 1
        line = out.getvalue().splitlines()[0]
        assert line.startswith("::error file=")
        assert ",line=" in line
        assert "PPR504" in line

    def test_module_name_inference(self):
        info = load_module(SRC / "repro" / "core" / "stages.py")
        assert info.module == "repro.core.stages"
        assert info.package == "repro.core"


class TestRegistry:
    def test_seven_checkers_registered(self):
        names = {c.name for c in all_checkers()}
        assert names == {"stage-contract", "operator-laws", "mp-safety",
                         "hot-loops", "api-hygiene", "buffer-mutation",
                         "buffer-escape"}

    def test_codes_are_unique_and_documented(self):
        codes = all_codes()
        assert len(codes) == 20
        for code, summary in codes.items():
            assert code.startswith("PPR")
            assert summary

    def test_checker_rejects_undeclared_code(self):
        checker = next(iter(all_checkers()))
        info = load_module(CORPUS / "bad_no_all.py")
        with pytest.raises(ValueError):
            checker.diagnostic(info, 1, "PPR999", "bogus")
