"""Whole-repo smoke: ``repro lint`` gates the real tree, end to end."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import repro.fl.codec as codec_module
import repro.fl.executor as executor_module
import repro.fl.transport as transport_module
from repro.analysis.cli import run_lint
from repro.cli import main

FL_MODULES = (codec_module, transport_module, executor_module)


def _copy_wire_layers(tmp_path: Path) -> Path:
    tree = tmp_path / "layers"
    tree.mkdir()
    for module in FL_MODULES:
        shutil.copy(module.__file__, tree / Path(module.__file__).name)
    return tree


class TestRepoIsClean:
    def test_lint_exits_zero_against_the_committed_baseline(self, capsys):
        assert run_lint() == 0
        out = capsys.readouterr().out
        assert out == "0 finding(s)\n"

    def test_json_report_has_no_new_findings(self, capsys):
        assert run_lint(output_format="json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 0

    def test_cli_subcommand_is_wired(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 0


class TestAcceptance:
    """The ISSUE's acceptance criteria, against copies of the real tree."""

    def test_deleting_a_kind_from_wire_kinds_fails_lint(self, tmp_path,
                                                        capsys):
        tree = _copy_wire_layers(tmp_path)
        codec_copy = tree / "codec.py"
        source = codec_copy.read_text()
        assert '    KIND_VFOLD: "request",\n' in source
        codec_copy.write_text(
            source.replace('    KIND_VFOLD: "request",\n', ""))
        exit_code = run_lint([str(tree)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "REPRO-W202" in out
        assert "'vfold'" in out

    def test_unregistered_kind_in_executor_fails_lint(self, tmp_path,
                                                      capsys):
        tree = _copy_wire_layers(tmp_path)
        executor_copy = tree / "executor.py"
        executor_copy.write_text(
            executor_copy.read_text()
            + "\n\ndef _probe(kind):\n    return kind == \"snapshot\"\n")
        exit_code = run_lint([str(tree)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "REPRO-W202" in out
        assert "'snapshot'" in out

    def test_pristine_copies_pass_with_an_empty_baseline(self, tmp_path,
                                                         capsys):
        # The wire layers themselves carry no findings.
        tree = _copy_wire_layers(tmp_path)
        exit_code = run_lint([str(tree)])
        capsys.readouterr()
        assert exit_code == 0


class TestRun:
    BAD = ("import time\n\n\n"
           "def stamp():\n"
           "    return time.time()\n")

    def test_a_planted_finding_fails_the_run_and_is_printed(self, tmp_path,
                                                            capsys):
        tree = tmp_path / "tree"
        (tree / "repro" / "fl").mkdir(parents=True)
        (tree / "repro" / "fl" / "executor.py").write_text(self.BAD)
        assert run_lint([str(tree)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        planted = tree / "repro" / "fl" / "executor.py"
        assert lines[0].startswith(f"{planted}:5: REPRO-D101 ")
        assert lines[1] == "1 finding(s)"

    def test_output_file_receives_the_report(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "clean.py").write_text("x = 1\n")
        report_path = tmp_path / "report.json"
        assert run_lint([str(tree)], output_format="json",
                        output=str(report_path)) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["total"] == 0

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert run_lint([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err
