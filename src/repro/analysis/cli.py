"""``repro lint`` command: run the checkers, fail on any finding.

Exit codes: ``0`` — no findings; ``1`` — findings (each printed);
``2`` — usage errors.  A ``# lint: allow[...]`` comment on the flagged
line is the one way to accept a finding.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import default_checkers
from .engine import (LintReport, default_package_root, parse_modules,
                     run_checkers)

__all__ = ["run_lint"]


def run_lint(paths: Sequence[str] = (), output_format: str = "text",
             output: Optional[str] = None) -> int:
    """Run the full checker set over ``paths`` (default: the package)."""
    targets = ([Path(p) for p in paths] if paths
               else [default_package_root()])
    for target in targets:
        if not target.exists():
            print(f"error: no such path: {target}", file=sys.stderr)
            return 2

    modules, parse_errors = parse_modules(targets)
    findings = list(parse_errors)
    findings.extend(run_checkers(modules, default_checkers()))
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    report = LintReport(findings)

    if output_format == "json":
        text = json.dumps(report.as_json(), indent=2, sort_keys=True)
    else:
        text = _render_text(report)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    try:
        print(text)
    except BrokenPipeError:
        # Downstream pager/head hung up; the exit code still stands.
        try:
            sys.stdout.close()
        except OSError:
            pass
    return 1 if report.failed else 0


def _render_text(report: LintReport) -> str:
    lines: List[str] = [finding.render() for finding in report.findings]
    lines.append(f"{len(report.findings)} finding(s)")
    return "\n".join(lines)
