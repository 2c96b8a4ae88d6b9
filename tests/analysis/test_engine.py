"""Engine mechanics: findings, suppressions, report."""

from __future__ import annotations

import pytest

from repro.analysis import SwallowChecker
from repro.analysis.engine import (Finding, LintReport, import_aliases,
                                   parse_modules, resolve_call_name,
                                   run_checkers)

from .conftest import codes


def _finding(path="a.py", line=3, code="REPRO-E401", message="m",
             severity="warning", checker="swallow"):
    return Finding(path=path, line=line, code=code, message=message,
                   severity=severity, checker=checker)


class TestFinding:
    def test_render_is_path_line_code_message(self):
        finding = _finding()
        assert finding.render() == "a.py:3: REPRO-E401 m"


class TestParsing:
    def test_unparsable_file_becomes_x001_not_a_crash(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        modules, errors = parse_modules([tmp_path], repo_root=tmp_path)
        assert modules == []
        assert codes(errors) == ["REPRO-X001"]

    def test_display_paths_are_repo_relative(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        modules, _ = parse_modules([tmp_path], repo_root=tmp_path)
        assert [m.path for m in modules] == ["pkg/mod.py"]

    def test_alias_resolution_canonicalizes_roots(self):
        import ast
        tree = ast.parse("import numpy as np\n"
                         "from time import sleep as pause\n")
        aliases = import_aliases(tree)
        call = ast.parse("np.random.rand()").body[0].value
        assert resolve_call_name(call.func, aliases) == "numpy.random.rand"
        call = ast.parse("pause(1)").body[0].value
        assert resolve_call_name(call.func, aliases) == "time.sleep"


SWALLOW = """
def teardown(conn):
    try:
        conn.close()
    except Exception:{comment}
        pass
"""


class TestSuppression:
    @pytest.mark.parametrize("comment", [
        "  # lint: allow[swallow]",
        "  # lint: allow[REPRO-E401]",
        "  # lint: allow[repro-e401] - reason text after",
        "  # lint: allow[determinism, swallow]",
    ])
    def test_allow_comment_on_except_line_silences(self, lint, comment):
        findings = lint({"mod.py": SWALLOW.format(comment=comment)},
                        [SwallowChecker()])
        assert findings == []

    @pytest.mark.parametrize("comment", [
        "",
        "  # lint: allow[determinism]",
        "  # allow[swallow]",
    ])
    def test_wrong_or_missing_token_does_not_silence(self, lint, comment):
        findings = lint({"mod.py": SWALLOW.format(comment=comment)},
                        [SwallowChecker()])
        assert codes(findings) == ["REPRO-E401"]

    def test_comment_on_a_different_line_does_not_silence(self, lint):
        source = ("# lint: allow[swallow]\n"
                  "def teardown(conn):\n"
                  "    try:\n"
                  "        conn.close()\n"
                  "    except Exception:\n"
                  "        pass\n")
        findings = lint({"mod.py": source}, [SwallowChecker()])
        assert codes(findings) == ["REPRO-E401"]


class TestRunCheckers:
    def test_findings_sorted_and_deduplicated(self, tmp_path):
        class Repeater:
            name = "rep"

            def check_module(self, module):
                yield _finding(path=module.path, line=2, code="Z")
                yield _finding(path=module.path, line=1, code="A")
                yield _finding(path=module.path, line=1, code="A")

            def check_project(self, modules):
                return iter(())

        (tmp_path / "m.py").write_text("x = 1\ny = 2\n")
        modules, _ = parse_modules([tmp_path], repo_root=tmp_path)
        findings = run_checkers(modules, [Repeater()])
        assert [(f.line, f.code) for f in findings] == [(1, "A"), (2, "Z")]


class TestReport:
    def test_report_fails_only_on_new_findings(self):
        # Every finding is new: there is no baseline to absorb one.
        assert not LintReport([]).failed
        assert LintReport([_finding()]).failed

    def test_as_json_lists_every_finding(self):
        report = LintReport([_finding(line=1), _finding(line=2)])
        payload = report.as_json()
        assert payload["summary"] == {"total": 2}
        assert [entry["line"] for entry in payload["findings"]] == [1, 2]
        assert payload["findings"][0]["code"] == "REPRO-E401"
