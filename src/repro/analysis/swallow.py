"""Checker 3: ``except Exception`` bodies that swallow errors silently.

A broad handler whose whole body is ``pass`` (or a bare ``continue``)
erases the error *and* the fact that anything happened.  Teardown paths
legitimately ignore failures — but they must at least say so on stderr
(see ``repro.fl.executor._note_swallowed``) or carry an explicit
``# lint: allow[swallow]`` on the ``except`` line.

Codes
-----
* ``REPRO-E401`` — ``except Exception:``/bare ``except:`` whose body is
  only ``pass``.
* ``REPRO-E402`` — same, with a bare ``continue`` (silently skips the
  iteration).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .engine import Checker, Finding, SourceModule, dotted_name

__all__ = ["SwallowChecker"]

_BROAD = frozenset({"Exception", "BaseException"})


def _is_broad(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:  # bare ``except:``
        return True
    if isinstance(annotation, ast.Tuple):
        return any(_is_broad(element) for element in annotation.elts)
    dotted = dotted_name(annotation)
    if dotted is None:
        return False
    return dotted.rsplit(".", 1)[-1] in _BROAD


class SwallowChecker(Checker):
    name = "swallow"

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not _is_broad(handler.type):
                    continue
                body = handler.body
                if all(isinstance(stmt, ast.Pass) for stmt in body):
                    yield Finding(
                        path=module.path, line=handler.lineno,
                        code="REPRO-E401", checker=self.name,
                        severity="warning",
                        message=("broad exception handler swallows "
                                 "errors silently (body is only "
                                 "'pass'); log, narrow, or re-raise"))
                elif (len(body) == 1
                      and isinstance(body[0], ast.Continue)):
                    yield Finding(
                        path=module.path, line=handler.lineno,
                        code="REPRO-E402", checker=self.name,
                        severity="warning",
                        message=("broad exception handler silently "
                                 "skips the iteration (body is a bare "
                                 "'continue'); log, narrow, or "
                                 "re-raise"))
