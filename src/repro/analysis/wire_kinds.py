"""Checker 2: the wire-kind mapping must stay total across the layers.

The worker-resident backends speak ``(kind, payload)`` messages across
three layers: :mod:`repro.fl.codec` (framing + the kind registry),
:mod:`repro.fl.transport` (shard-server loop + handshake) and
:mod:`repro.fl.executor` (dispatch/collect + worker loops).  Historically
a kind added in one layer but not the others surfaced only as a runtime
``MalformedMessage``/``ProtocolError`` under a fuzzer.  This checker
pins the mapping to one canonical table — ``WIRE_KINDS`` in
``codec.py`` — and cross-checks every usage site against it.

A *usage site* is any of:

* a comparison against a kind-carrying name (``kind == "run"``,
  ``control in ("ping", "shutdown")``; the names ``kind``, ``wire_kind``
  and ``control`` are recognized);
* a ``kind=...`` keyword argument;
* any reference to a ``KIND_*`` constant (attribute or bare name) — the
  registry adoption replaces raw literals with these, and this rule
  keeps resolving them;
* a top-level ``KIND_* = "literal"`` definition in the registry module.

Codes
-----
* ``REPRO-W201`` — registry missing or malformed (non-literal keys,
  unknown role values).
* ``REPRO-W202`` — a usage site names a kind that is not registered in
  ``WIRE_KINDS`` (this is what fires when a kind is deleted from the
  registry while any layer still speaks it, or when a new kind is
  introduced in one layer only).
* ``REPRO-W203`` — a kind spelled as a raw string literal in a
  non-registry layer (warning; use the ``KIND_*`` constant).
* ``REPRO-W204`` — a registered kind no layer references (dead registry
  entry — delete it or wire it up).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .engine import Checker, Finding, SourceModule, dotted_name

__all__ = ["WireKindChecker"]

#: Names whose comparisons carry message kinds.
_KIND_NAMES = frozenset({"kind", "wire_kind", "control"})

#: Accepted registry role values.
_ROLES = frozenset({"control", "request", "reply"})


def _top_level_assigns(tree: ast.Module) -> Iterator[Tuple[str, ast.expr,
                                                           int]]:
    """Yield ``(name, value, lineno)`` for simple top-level assignments.

    Covers both ``NAME = value`` and annotated ``NAME: T = value`` forms
    (the registry itself is ``WIRE_KINDS: Dict[str, str] = {...}``).
    """
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            yield node.targets[0].id, node.value, node.lineno
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)
              and node.value is not None):
            yield node.target.id, node.value, node.lineno


class _Site:
    """One place a kind is spoken: (module, line, kind, how)."""

    __slots__ = ("module", "line", "kind", "literal", "definition")

    def __init__(self, module: SourceModule, line: int, kind: str,
                 literal: bool, definition: bool = False) -> None:
        self.module = module
        self.line = line
        self.kind = kind
        self.literal = literal
        self.definition = definition


class WireKindChecker(Checker):
    name = "wire"

    def __init__(self, registry_module: str = "codec.py",
                 registry_name: str = "WIRE_KINDS",
                 layers: frozenset = frozenset({"codec.py", "transport.py",
                                                "executor.py"})) -> None:
        self.registry_module = registry_module
        self.registry_name = registry_name
        self.layers = frozenset(layers) | {registry_module}

    # ------------------------------------------------------------------ #
    def check_project(self,
                      modules: Sequence[SourceModule]) -> Iterator[Finding]:
        layer_modules = [m for m in modules if m.name in self.layers]
        registry_mods = [m for m in layer_modules
                         if m.name == self.registry_module]
        if not registry_mods:
            # No codec in the linted set (e.g. a partial run): nothing
            # to cross-check against.
            return
        registry_mod = registry_mods[0]
        constants = self._kind_constants(registry_mod)
        registry, registry_findings = self._load_registry(registry_mod,
                                                          constants)
        yield from registry_findings
        if registry is None:
            return

        sites: List[_Site] = []
        for module in layer_modules:
            sites.extend(self._collect_sites(module, constants))

        referenced = set()
        for site in sites:
            if not site.definition:
                referenced.add(site.kind)
            if site.kind not in registry:
                yield Finding(
                    path=site.module.path, line=site.line,
                    code="REPRO-W202", checker=self.name, severity="error",
                    message=(f"message kind '{site.kind}' is not in "
                             f"codec.{self.registry_name}; register it "
                             f"or fix the kind"))
            elif site.literal and site.module.name != self.registry_module:
                yield Finding(
                    path=site.module.path, line=site.line,
                    code="REPRO-W203", checker=self.name,
                    severity="warning",
                    message=(f"message kind '{site.kind}' spelled as a "
                             f"raw string literal; use the KIND_* "
                             f"constant from codec"))
        for kind in sorted(set(registry) - referenced):
            yield Finding(
                path=registry_mod.path, line=registry[kind][1],
                code="REPRO-W204", checker=self.name, severity="error",
                message=(f"kind '{kind}' is registered in "
                         f"{self.registry_name} but never referenced in "
                         f"any wire layer (dead entry — delete it or "
                         f"wire it up)"))

    # ------------------------------------------------------------------ #
    @staticmethod
    def _kind_constants(module: SourceModule) -> Dict[str, str]:
        """Top-level ``KIND_* = "literal"`` constants of the registry."""
        constants: Dict[str, str] = {}
        for name, value, _ in _top_level_assigns(module.tree):
            if (name.startswith("KIND_") and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                constants[name] = value.value
        return constants

    def _load_registry(self, module: SourceModule,
                       constants: Dict[str, str]
                       ) -> Tuple[Optional[Dict[str, Tuple[str, int]]],
                                  List[Finding]]:
        """Parse ``WIRE_KINDS = {...}`` into ``{kind: (role, line)}``."""
        findings: List[Finding] = []
        for name, value_node, lineno in _top_level_assigns(module.tree):
            if name != self.registry_name:
                continue
            if not isinstance(value_node, ast.Dict):
                findings.append(Finding(
                    path=module.path, line=lineno, code="REPRO-W201",
                    checker=self.name,
                    message=(f"{self.registry_name} must be a literal "
                             f"dict of kind -> role")))
                return None, findings
            registry: Dict[str, Tuple[str, int]] = {}
            for key, value in zip(value_node.keys, value_node.values):
                kind = self._resolve_kind_expr(key, constants)
                if kind is None:
                    findings.append(Finding(
                        path=module.path,
                        line=(key or value).lineno, code="REPRO-W201",
                        checker=self.name,
                        message=(f"{self.registry_name} keys must be "
                                 f"string literals or KIND_* constants")))
                    continue
                role = (value.value
                        if isinstance(value, ast.Constant) else None)
                if role not in _ROLES:
                    findings.append(Finding(
                        path=module.path, line=value.lineno,
                        code="REPRO-W201", checker=self.name,
                        message=(f"kind '{kind}' has role {role!r}; "
                                 f"expected one of "
                                 f"{sorted(_ROLES)}")))
                registry[kind] = (role if isinstance(role, str) else "?",
                                  key.lineno if key is not None
                                  else value.lineno)
            return registry, findings
        findings.append(Finding(
            path=module.path, line=1, code="REPRO-W201",
            checker=self.name,
            message=(f"wire-kind registry {self.registry_name} not found "
                     f"in {self.registry_module} (every message kind "
                     f"must be registered)")))
        return None, findings

    @staticmethod
    def _resolve_kind_expr(node: Optional[ast.expr],
                           constants: Dict[str, str]) -> Optional[str]:
        """A kind expression -> its string, via literals or constants."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        dotted = dotted_name(node) if node is not None else None
        if dotted is not None:
            tail = dotted.rsplit(".", 1)[-1]
            if tail in constants:
                return constants[tail]
        return None

    # ------------------------------------------------------------------ #
    def _collect_sites(self, module: SourceModule,
                       constants: Dict[str, str]) -> List[_Site]:
        sites: List[_Site] = []
        is_registry = module.name == self.registry_module
        registry_dict: Optional[ast.Dict] = None
        definition_lines = set()
        if is_registry:
            for name, value_node, lineno in _top_level_assigns(module.tree):
                if name == self.registry_name:
                    registry_dict = (value_node
                                     if isinstance(value_node, ast.Dict)
                                     else None)
                elif name.startswith("KIND_"):
                    definition_lines.add(lineno)
                    kind = constants.get(name)
                    if kind is not None:
                        sites.append(_Site(module, lineno, kind,
                                           literal=False, definition=True))
        registry_nodes = (set(ast.walk(registry_dict))
                          if registry_dict is not None else set())

        for node in ast.walk(module.tree):
            if node in registry_nodes:
                continue
            if isinstance(node, ast.Compare):
                sites.extend(self._compare_sites(module, node, constants))
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "kind":
                        resolved = self._site_kind(keyword.value, constants)
                        if resolved is not None:
                            sites.append(_Site(module, keyword.value.lineno,
                                               *resolved))
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and not isinstance(getattr(node, "ctx", None), ast.Store)):
                dotted = dotted_name(node)
                tail = (dotted.rsplit(".", 1)[-1]
                        if dotted is not None else None)
                if tail is not None and tail.startswith("KIND_"):
                    if node.lineno in definition_lines:
                        continue
                    if tail in constants:
                        sites.append(_Site(module, node.lineno,
                                           constants[tail], literal=False))
                    else:
                        # A KIND_* reference with no backing constant:
                        # surface it as an unknown kind (Python itself
                        # would NameError, but the lint runs first).
                        sites.append(_Site(module, node.lineno,
                                           tail, literal=False))
        return sites

    def _compare_sites(self, module: SourceModule, node: ast.Compare,
                       constants: Dict[str, str]) -> Iterator[_Site]:
        operands = [node.left] + list(node.comparators)
        if not any(self._is_kind_ref(operand) for operand in operands):
            return
        for operand, op in zip(node.comparators, node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                resolved = self._site_kind(operand, constants)
                if resolved is not None:
                    yield _Site(module, operand.lineno, *resolved)
            elif isinstance(op, (ast.In, ast.NotIn)):
                if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                    for element in operand.elts:
                        resolved = self._site_kind(element, constants)
                        if resolved is not None:
                            yield _Site(module, element.lineno, *resolved)
        # ``"run" == kind`` (reversed operands)
        first = node.left
        if (not self._is_kind_ref(first)
                and any(self._is_kind_ref(c) for c in node.comparators)):
            resolved = self._site_kind(first, constants)
            if resolved is not None:
                yield _Site(module, first.lineno, *resolved)

    @staticmethod
    def _is_kind_ref(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _KIND_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in _KIND_NAMES
        return False

    def _site_kind(self, node: ast.expr, constants: Dict[str, str]
                   ) -> Optional[Tuple[str, bool]]:
        """Resolve one expression to ``(kind, was_literal)`` or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, True
        dotted = dotted_name(node)
        if dotted is not None:
            tail = dotted.rsplit(".", 1)[-1]
            if tail in constants:
                return constants[tail], False
        return None
