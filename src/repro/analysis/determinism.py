"""Checker 1: nondeterminism sources in determinism-critical modules.

The backends' contract is *bit-identical* histories across serial,
persistent and sharded execution under a fixed seed
(README § Determinism guarantees).  Any wall-clock read, global-RNG
call, unordered-set iteration, ``id()``-based ordering or OS entropy
inside the modules that implement that contract is either a bug or a
deliberate exception that deserves a visible ``# lint:
allow[determinism]`` marker.

Codes
-----
* ``REPRO-D101`` — wall-clock call (``time.time``/``monotonic``/
  ``perf_counter``/``datetime.now``…).
* ``REPRO-D102`` — global-state RNG call (``random.*``,
  ``numpy.random.*`` except a *seeded* ``default_rng``).
* ``REPRO-D103`` — iteration over an unordered ``set``/``frozenset``
  (``for x in set(...)``, ``list({...})``, …) without ``sorted``.
* ``REPRO-D104`` — ``id()``-keyed ordering (``sorted(..., key=id)``).
* ``REPRO-D105`` — OS entropy (``os.urandom``, ``uuid.uuid1/4``,
  ``secrets.*``).
* ``REPRO-D100`` — with the whole package linted, a target that matches
  no module, so a rename or a split cannot switch the checks off.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence

from .engine import (Checker, Finding, SourceModule, package_path,
                     resolve_call_name)

__all__ = ["DeterminismChecker", "DEFAULT_DETERMINISM_TARGETS"]

#: Modules (package-relative paths) whose results must be bit-identical
#: across backends: the executor dispatch path, fused training, compact
#: soft-training, the exact-fold and Eq. 10 aggregation layers, the wire
#: codec — and the chaos engine, the scenario runner and its spec parser,
#: whose whole premise is that injected fault sequences replay exactly
#: from (seed, spec).
DEFAULT_DETERMINISM_TARGETS = frozenset({
    "fl/executor.py", "fl/fusion.py", "nn/compact.py", "fl/aggregation.py",
    "core/aggregation.py", "fl/codec.py", "fl/chaos.py",
    "experiments/scenario.py", "experiments/spec.py",
})

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

_ENTROPY = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
})

#: Callables that wrap an iterable without imposing an order, so a set
#: argument leaks its hash ordering into the result.
_ORDER_LEAKING_WRAPPERS = frozenset({
    "list", "tuple", "iter", "enumerate", "reversed",
})


def _is_set_expr(node: ast.expr, aliases: Dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = resolve_call_name(node.func, aliases)
        return name in ("set", "frozenset")
    return False


def _is_id_key(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    if isinstance(node, ast.Lambda):
        body = node.body
        return (isinstance(body, ast.Call)
                and isinstance(body.func, ast.Name)
                and body.func.id == "id")
    return False


class DeterminismChecker(Checker):
    name = "determinism"

    def __init__(self, targets: frozenset = DEFAULT_DETERMINISM_TARGETS
                 ) -> None:
        self.targets = frozenset(targets)

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if package_path(module.path) not in self.targets:
            return
        aliases = module.aliases
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, aliases):
                    yield self._finding(
                        module, node.iter, "REPRO-D103",
                        "iteration over an unordered set (hash order "
                        "varies between runs); sort it first")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp, ast.SetComp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter, aliases):
                        yield self._finding(
                            module, comp.iter, "REPRO-D103",
                            "comprehension over an unordered set (hash "
                            "order varies between runs); sort it first")

    def check_project(self,
                      modules: Sequence[SourceModule]) -> Iterator[Finding]:
        paths = {package_path(module.path): module for module in modules}
        root = paths.get("__init__.py")
        for target in sorted(self.targets) if root is not None else ():
            if target not in paths:
                yield Finding(path=root.path, line=1, code="REPRO-D100",
                              message=f"determinism target {target!r} "
                                      f"matches no module",
                              severity="error", checker=self.name)

    # ------------------------------------------------------------------ #
    def _check_call(self, module: SourceModule, node: ast.Call,
                    aliases: Dict[str, str]) -> Iterator[Finding]:
        name = resolve_call_name(node.func, aliases)
        if name is None:
            return
        if name in _WALL_CLOCK:
            yield self._finding(
                module, node, "REPRO-D101",
                f"wall-clock call {name}() in a determinism-critical "
                f"module (host timing must never influence results)")
        elif name in _ENTROPY or name.startswith("secrets."):
            yield self._finding(
                module, node, "REPRO-D105",
                f"OS entropy call {name}() in a determinism-critical "
                f"module (seeded generators only)")
        elif self._is_global_rng(name, node):
            yield self._finding(
                module, node, "REPRO-D102",
                f"global-state RNG call {name}() (module-level RNG "
                f"state breaks cross-backend determinism; use a seeded "
                f"Generator)")
        elif (name in ("sorted", "min", "max")
              or name.endswith(".sort")):
            for keyword in node.keywords:
                if keyword.arg == "key" and _is_id_key(keyword.value):
                    yield self._finding(
                        module, node, "REPRO-D104",
                        "ordering keyed on id() (allocation addresses "
                        "vary between runs)")
        elif name in _ORDER_LEAKING_WRAPPERS and node.args:
            if _is_set_expr(node.args[0], aliases):
                yield self._finding(
                    module, node, "REPRO-D103",
                    f"{name}() materializes an unordered set (hash "
                    f"order varies between runs); sort it first")

    @staticmethod
    def _is_global_rng(name: str, node: ast.Call) -> bool:
        if name.startswith("random."):
            return True
        if name.startswith(("numpy.random.", "np.random.")):
            tail = name.rsplit(".", 1)[1]
            if tail == "default_rng":
                # Seeded default_rng(seed) is the sanctioned way to make
                # a Generator; a bare default_rng() pulls OS entropy.
                return not (node.args or node.keywords)
            return True
        return False

    def _finding(self, module: SourceModule, node: ast.AST, code: str,
                 message: str) -> Finding:
        return Finding(path=module.path, line=node.lineno, code=code,
                       message=message, severity="error",
                       checker=self.name)
