"""Fixtures for the ``repro lint`` checker tests.

Each test writes a tiny synthetic module tree into ``tmp_path`` (a
checker scoping on package paths sees ``repro/fl/executor.py`` as the
real module, one scoping on basenames any ``codec.py``) and runs a
checker set over it.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.engine import parse_modules, run_checkers


@pytest.fixture
def lint(tmp_path):
    """Write ``{name: source}`` files, run ``checkers``, return findings."""

    def _lint(files, checkers):
        for name, source in files.items():
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source), encoding="utf-8")
        modules, errors = parse_modules([tmp_path], repo_root=tmp_path)
        return list(errors) + run_checkers(modules, checkers)

    return _lint


def codes(findings):
    """The finding codes, in report order."""
    return [finding.code for finding in findings]
