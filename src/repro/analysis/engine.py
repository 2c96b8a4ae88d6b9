"""Core of ``repro lint``: parsed modules, findings, suppression, report.

The substrate's correctness rests on invariants that no unit test can
watch continuously — bit-identical determinism across the execution
backends, a total wire-kind mapping across codec/transport/executor,
teardown paths that never swallow errors invisibly, resources released
on every path.  This package enforces them *statically*: the engine
walks a Python tree with :mod:`ast`, hands every parsed module to a set
of checkers, and renders their findings as ``path:line: CODE message``
(or JSON).

Any finding fails the gate.  Two mechanisms keep it practical:

* **Suppressions** — a ``# lint: allow[category-or-CODE]`` comment on
  the flagged line silences that finding.  Every suppression is an
  explicit, reviewable statement that the violation is intentional, and
  the one escape hatch.
* **Severity** — every finding is an ``error`` or a ``warning``; both
  fail CI (a warning is "probably fine, say why with an allow comment",
  not "ignore me").
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "SEVERITIES",
    "Finding",
    "SourceModule",
    "Checker",
    "LintReport",
    "dotted_name",
    "import_aliases",
    "resolve_call_name",
    "iter_source_files",
    "parse_modules",
    "run_checkers",
    "default_package_root",
    "default_repo_root",
]

SEVERITIES = ("error", "warning")

#: ``# lint: allow[determinism]`` / ``# lint: allow[REPRO-D101, swallow]``
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9_\-, ]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One checker hit, rendered as ``path:line: CODE message``."""

    path: str
    line: int
    code: str
    message: str
    severity: str = "error"
    checker: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def as_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "severity": self.severity,
            "checker": self.checker,
            "message": self.message,
        }


class SourceModule:
    """One parsed source file as the checkers see it.

    ``path`` is the display path (repo-relative where possible);
    ``name`` is the basename, which is what checkers scope on
    (``executor.py``, ``codec.py``, …).
    """

    def __init__(self, path: str, source: str,
                 tree: Optional[ast.AST] = None) -> None:
        self.path = path
        self.source = source
        self.tree = tree if tree is not None else ast.parse(source)
        self.lines = source.splitlines()
        self._allows: Optional[Dict[int, frozenset]] = None
        self._aliases: Optional[Dict[str, str]] = None

    @property
    def name(self) -> str:
        return Path(self.path).name

    @property
    def aliases(self) -> Dict[str, str]:
        """Import aliases: local name -> canonical dotted module path."""
        if self._aliases is None:
            self._aliases = import_aliases(self.tree)
        return self._aliases

    def allowed(self, line: int) -> frozenset:
        """Lower-cased ``# lint: allow[...]`` tokens present on a line."""
        if self._allows is None:
            allows: Dict[int, frozenset] = {}
            for number, text in enumerate(self.lines, start=1):
                match = _ALLOW_RE.search(text)
                if match:
                    allows[number] = frozenset(
                        token.strip().lower()
                        for token in match.group(1).split(",")
                        if token.strip())
            self._allows = allows
        return self._allows.get(line, frozenset())

    def suppresses(self, finding: Finding) -> bool:
        tokens = self.allowed(finding.line)
        if not tokens:
            return False
        return (finding.checker.lower() in tokens
                or finding.code.lower() in tokens)


class Checker:
    """Base checker: per-module and whole-project hooks.

    ``name`` doubles as the suppression category (``# lint:
    allow[<name>]``); per-module checks see one file at a time, the
    project hook sees every parsed module at once (cross-file
    invariants like the wire-kind registry need all three layers).
    """

    name = ""

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())

    def check_project(self,
                      modules: Sequence[SourceModule]) -> Iterator[Finding]:
        return iter(())


# --------------------------------------------------------------------- #
# shared AST helpers
# --------------------------------------------------------------------- #
def package_path(path: str) -> Optional[str]:
    """``src/repro/fl/codec.py`` -> ``fl/codec.py``; None outside it."""
    parts = PurePosixPath(path).parts[::-1]
    return ("/".join(parts[:parts.index("repro")][::-1])
            if "repro" in parts else None)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to canonical dotted paths for a module's imports.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from time import
    sleep as zzz`` -> ``{"zzz": "time.sleep"}``.  Relative imports are
    kept by tail (``from .codec import KIND_FOLD`` -> ``codec.KIND_FOLD``)
    so checkers can match on suffixes without resolving packages.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                full = f"{base}.{alias.name}" if base else alias.name
                aliases[alias.asname or alias.name] = full
    return aliases


def resolve_call_name(node: ast.expr,
                      aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a callable expression.

    The chain root is translated through the module's import aliases, so
    ``np.random.rand`` resolves to ``numpy.random.rand`` and an aliased
    ``from time import sleep as pause`` resolves ``pause`` to
    ``time.sleep``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    canonical_root = aliases.get(root, root)
    return f"{canonical_root}.{rest}" if rest else canonical_root


# --------------------------------------------------------------------- #
# file discovery / parsing
# --------------------------------------------------------------------- #

def default_package_root() -> Path:
    """The ``src/repro`` tree this engine ships inside."""
    return Path(__file__).resolve().parents[1]


def default_repo_root() -> Path:
    """Best-effort repository root (``src/repro`` -> two levels up)."""
    package = default_package_root()
    if package.parent.name == "src":
        return package.parent.parent
    return package.parent


def iter_source_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, sorted for determinism."""
    seen = set()
    collected: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            collected.append(path)
    for path in collected:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            yield path


def parse_modules(paths: Sequence[Path],
                  repo_root: Optional[Path] = None
                  ) -> Tuple[List[SourceModule], List[Finding]]:
    """Parse every file; unparsable files become findings, not crashes."""
    repo_root = repo_root or default_repo_root()
    modules: List[SourceModule] = []
    errors: List[Finding] = []
    for path in iter_source_files(paths):
        try:
            display = path.resolve().relative_to(repo_root).as_posix()
        except ValueError:
            display = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            modules.append(SourceModule(display, source))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(Finding(
                path=display, line=getattr(exc, "lineno", None) or 1,
                code="REPRO-X001", checker="engine",
                message=f"cannot parse file: {type(exc).__name__}: {exc}"))
    return modules, errors


# --------------------------------------------------------------------- #
# running checkers
# --------------------------------------------------------------------- #

def run_checkers(modules: Sequence[SourceModule],
                 checkers: Sequence[Checker]) -> List[Finding]:
    """All unsuppressed findings, sorted by (path, line, code)."""
    by_path = {module.path: module for module in modules}
    findings: List[Finding] = []
    for checker in checkers:
        for module in modules:
            findings.extend(checker.check_module(module))
        findings.extend(checker.check_project(modules))
    kept = [finding for finding in findings
            if not (finding.path in by_path
                    and by_path[finding.path].suppresses(finding))]
    return sorted(set(kept), key=lambda f: (f.path, f.line, f.code,
                                            f.message))


@dataclass
class LintReport:
    """Everything one lint run found; any finding fails it."""

    findings: List[Finding]

    @property
    def failed(self) -> bool:
        return bool(self.findings)

    def as_json(self) -> Dict[str, Any]:
        return {
            "version": 2,
            "summary": {"total": len(self.findings)},
            "findings": [finding.as_json() for finding in self.findings],
        }
