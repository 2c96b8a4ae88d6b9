"""Static analysis for the repro substrate (``repro lint``).

AST-based invariant checkers that make the substrate's hand-maintained
guarantees machine-checkable at CI time instead of fuzzer-discovered at
runtime:

* :mod:`~repro.analysis.determinism` — no nondeterminism sources in the
  bit-identical backends' modules;
* :mod:`~repro.analysis.wire_kinds` — the wire message-kind mapping is
  total across codec/transport/executor (``codec.WIRE_KINDS``);
* :mod:`~repro.analysis.swallow` — no silent ``except Exception: pass``;
* :mod:`~repro.analysis.resources` — resources released on all paths;
* :mod:`~repro.analysis.architecture` — designs deleted on purpose stay
  deleted (one rule table).

The engine (:mod:`~repro.analysis.engine`) is stdlib-only — no numpy —
so the lint gate can run in a bare interpreter.
"""

from .architecture import ArchitectureChecker
from .determinism import DeterminismChecker
from .engine import Checker, Finding, LintReport, SourceModule, run_checkers
from .resources import ResourceChecker
from .swallow import SwallowChecker
from .wire_kinds import WireKindChecker

__all__ = [
    "Checker",
    "Finding",
    "LintReport",
    "SourceModule",
    "DeterminismChecker",
    "WireKindChecker",
    "SwallowChecker",
    "ResourceChecker",
    "ArchitectureChecker",
    "default_checkers",
    "run_checkers",
]


def default_checkers():
    """The checker set ``repro lint`` runs, in reporting order."""
    return [
        DeterminismChecker(),
        WireKindChecker(),
        SwallowChecker(),
        ResourceChecker(),
        ArchitectureChecker(),
    ]
