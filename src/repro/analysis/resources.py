"""Checker 4: resource acquisitions must be released on every path.

Shared-memory blocks leak into ``/dev/shm`` past process death and
sockets hold ports and peer state.  An acquisition is
accepted when the code visibly hands its lifetime to something:

* it is the context expression of a ``with`` block;
* it happens anywhere inside a ``try`` that has a ``finally``;
* it is stored on ``self`` (directly, tuple-unpacked, or passed into a
  call rooted at ``self``, e.g. ``self._published.append(shm)``) *and*
  the enclosing class defines a teardown method (``close``/``stop``/
  ``shutdown``/``release``/``__exit__``/``__del__``);
* its name escapes the function (returned, or passed to another call —
  ownership transferred to the caller/wrapper);
* its name visibly receives a teardown call (``close``/``release``/…)
  later in the function — the ``x = acquire(); try: … finally:
  x.close()`` idiom acquires *before* the try.

Everything else is ``REPRO-R501``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .engine import Checker, Finding, SourceModule, resolve_call_name

__all__ = ["ResourceChecker", "DEFAULT_RESOURCE_CALLS"]

#: Canonical call-name suffixes that acquire a resource.
DEFAULT_RESOURCE_CALLS = frozenset({
    "SharedMemory",
    "socket.socket",
    "socket.create_connection",
    "socket.socketpair",
})

_TEARDOWN_METHODS = frozenset({
    "close", "stop", "shutdown", "release", "__exit__", "__del__",
})


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _is_self_rooted(node: ast.expr) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


class ResourceChecker(Checker):
    name = "resource"

    def __init__(self,
                 resource_calls: frozenset = DEFAULT_RESOURCE_CALLS
                 ) -> None:
        self.resource_calls = frozenset(resource_calls)

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        aliases = module.aliases
        parents = _parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._resource_label(node, aliases)
            if label is None:
                continue
            if self._is_managed(node, parents):
                continue
            yield Finding(
                path=module.path, line=node.lineno, code="REPRO-R501",
                checker=self.name, severity="warning",
                message=(f"{label}(...) acquired without an enclosing "
                         f"'with'/'try/finally', an instance teardown "
                         f"hook, or an ownership hand-off; it leaks on "
                         f"the error path"))

    # ------------------------------------------------------------------ #
    def _resource_label(self, node: ast.Call,
                        aliases: Dict[str, str]) -> Optional[str]:
        name = resolve_call_name(node.func, aliases)
        if name is None:
            return None
        for candidate in self.resource_calls:
            if name == candidate or name.endswith("." + candidate):
                return name.rsplit(".", 1)[-1] if "." in name else name
            # Suffix classes (``SharedMemory``) match any dotted spelling.
            if ("." not in candidate
                    and name.rsplit(".", 1)[-1] == candidate):
                return candidate
        return None

    # ------------------------------------------------------------------ #
    def _is_managed(self, node: ast.Call,
                    parents: Dict[ast.AST, ast.AST]) -> bool:
        # Walk up: with-statements, try/finally, the assignment target,
        # the enclosing function and class.
        child: ast.AST = node
        assign: Optional[ast.Assign] = None
        enclosing_call: Optional[ast.Call] = None
        function: Optional[ast.AST] = None
        cls: Optional[ast.ClassDef] = None
        current = parents.get(node)
        while current is not None:
            if isinstance(current, ast.withitem):
                return True
            if isinstance(current, ast.Try) and current.finalbody:
                return True
            if isinstance(current, ast.Assign) and assign is None:
                assign = current
            if (isinstance(current, ast.Call) and current is not node
                    and enclosing_call is None):
                enclosing_call = current
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                if function is None:
                    function = current
            if isinstance(current, ast.ClassDef) and cls is None:
                cls = current
            child = current
            current = parents.get(current)

        has_teardown = cls is not None and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in _TEARDOWN_METHODS for item in cls.body)

        # ``self._things.append(resource)`` / ``self.x = wrap(resource)``:
        # the instance owns it — accepted when the class can tear down.
        if enclosing_call is not None and has_teardown:
            if _is_self_rooted(enclosing_call.func):
                return True
        if assign is not None:
            for target in assign.targets:
                for element in (target.elts
                                if isinstance(target, ast.Tuple)
                                else [target]):
                    if isinstance(element, (ast.Attribute, ast.Subscript)):
                        if _is_self_rooted(element) and has_teardown:
                            return True
            # Plain-name assignment: accepted when the name escapes the
            # function (returned or handed to another call — ownership
            # moved on), or when the function visibly tears it down
            # (the ``x = acquire(); try: … finally: x.close()`` idiom
            # acquires *before* the try).
            names = self._assigned_names(assign)
            if names and function is not None:
                if self._name_escapes(function, names, assign):
                    return True
                if self._name_torn_down(function, names):
                    return True
        if enclosing_call is not None and assign is None:
            # Used directly as an argument (``MessageChannel(
            # socket.create_connection(...))``): the wrapper owns it.
            return True
        return False

    @staticmethod
    def _assigned_names(assign: ast.Assign) -> Set[str]:
        names: Set[str] = set()
        for target in assign.targets:
            elements = (target.elts if isinstance(target, ast.Tuple)
                        else [target])
            for element in elements:
                if isinstance(element, ast.Name):
                    names.add(element.id)
        return names

    @staticmethod
    def _name_torn_down(function: ast.AST, names: Set[str]) -> bool:
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _TEARDOWN_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in names):
                return True
        return False

    @staticmethod
    def _name_escapes(function: ast.AST, names: Set[str],
                      assign: ast.Assign) -> bool:
        for node in ast.walk(function):
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id in names:
                        return True
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    for sub in ast.walk(arg):
                        if (isinstance(sub, ast.Name)
                                and sub.id in names
                                and isinstance(sub.ctx, ast.Load)):
                            return True
        return False
