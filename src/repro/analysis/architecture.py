"""Checker 5: architecture rules — a design deleted on purpose stays deleted.

Bit-identity to ``serial`` makes deleting a design safe; each row of
:data:`RULES` keeps one deletion or boundary in place, with the reason
``repro lint`` prints.  A scope or ``allowed`` entry is a path under the
package (``nn/``, ``fl/fusion.py``, ``""`` for all of it), optionally
narrowed to a definition (``cli.py:_keep_heap``).  Shapes, checked on the
AST so docstrings and comments never match: ``token``, an identifier or
string constant in ``names``; ``call``, a call whose target is or ends
with one; ``name``, an import or name/attribute chain resolving to one
or into it (``threading`` covers ``threading.Thread``).

Codes: ``REPRO-A701``–``A719``, one per row; ``REPRO-A700``, with the
whole package linted, an entry that matches no module or definition, so
a rename or a split cannot switch a rule off.
"""

from __future__ import annotations

import ast
from collections import namedtuple
from typing import Iterator, Optional, Sequence

from .engine import (Checker, Finding, SourceModule, package_path,
                     resolve_call_name)

__all__ = ["ArchitectureChecker", "RULES"]

Rule = namedtuple("Rule", "code shape names scope allowed reason")

#: This module spells every forbidden token in its own table.
_SELF = "analysis/architecture.py"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIER = {ast.Name: "id", ast.Attribute: "attr", ast.keyword: "arg",
               ast.arg: "arg", ast.Constant: "value", ast.FunctionDef: "name",
               ast.AsyncFunctionDef: "name", ast.ClassDef: "name"}


def _rule(number: int, shape: str, names: str, scope: str, reason: str,
          allowed: str = "") -> Rule:
    """A row from space-separated lists; an empty scope is the package."""
    return Rule(f"REPRO-A{number}", shape, tuple(names.split()),
                tuple(scope.split()) or ("",), tuple(allowed.split()), reason)


RULES = (
    _rule(701, "name", "numpy.float64", "nn/ data/ fl/fusion.py",
          "the substrate trains in float32: only Parameter and Dataset "
          "name a float dtype; float64 lives in the exact fold and core/"),
    _rule(702, "name", "numpy.matmul numpy.exp numpy.maximum numpy.tanh "
          "numpy.where numpy.log", "fl/fusion.py",
          "fl/fusion.py stacks clients and runs nn's own layers, loss and "
          "optimizers over a client axis: no forward/backward math there"),
    _rule(703, "token", "PersistentProcessBackend _PersistentWorker "
          "_persistent_worker_main KIND_CLOSE _CLOSE_BLOB Pipe", "",
          "a persistent slot is a forked shard server on a socketpair: "
          "the multiprocessing pipe worker and its close message are gone"),
    _rule(704, "name", "threading selectors", "fl/transport.py", "the shard "
          "server is a blocking request/reply loop: no selector or thread"),
    _rule(705, "token", "max_sessions MAX_SESSIONS _Connection _worker_main "
          "_run_queue --max-sessions EventLoopChecker REPRO-B301 REPRO-B302 "
          "REPRO-B303", "", "a shard serves one parent at a time: no "
          "sessions, run queue or event-loop lint checker"),
    _rule(706, "token", "RetryPolicy retry_policy heartbeat_interval "
          "connect_timeout seeded_jitter breaker_threshold _dead_slots "
          "_degraded_slots --heartbeat-interval --failover-attempts "
          "--drain-timeout --reconnect-attempts --connect-timeout "
          "--retry-backoff --retry-jitter", "", "failures are handled by "
          "measured constants: no retry policy, heartbeat, backoff or flag"),
    _rule(707, "token", "gates", "fl/fusion.py nn/masking.py",
          "a masked client stacks as its compact sub-network "
          "(nn/compact.py): no per-client gates on a stacked twin"),
    _rule(708, "call", "train_clients run_jobs server.aggregate",
          "core/ baselines/",
          "strategies train and fold through train_and_aggregate: no slot "
          "returns raw weights for a parent-side aggregate"),
    _rule(709, "token", "map_ordered KIND_RUN KIND_MAP AGGREGATION_MODES", "",
          "a slot answers fold and vfold only: the run and map request "
          "kinds and the flat topology are gone"),
    _rule(710, "token", "send_bytes codec_acked is_codec_frame "
          "_pickled_reply", "fl/transport.py fl/executor.py",
          "every payload on a slot connection, both ways, is a codec "
          "frame: no plain-pickle framing or codec negotiation"),
    _rule(711, "call", "pickle.loads", "fl/",
          "the codec skeleton is the one place under fl/ that unpickles",
          allowed="fl/codec.py:decode_message"),
    _rule(712, "token", "resumed _retained _Session KIND_BYE _BYE_FRAME "
          "_codec_version session", "fl/ cli.py",
          "a shard's residents die with their connection: no hello "
          "sessions, resume, takeover, bye kind or codec entry"),
    _rule(713, "token", "local_train", "fl/executor.py:SerialBackend",
          "every backend trains a batch through _train_batch_groups: "
          "SerialBackend has no training loop of its own"),
    _rule(714, "call", "local_train", "fl/executor.py",
          "only the classic route of a group and of a virtual chunk calls "
          "the per-client local_train",
          allowed="fl/executor.py:_train_resident_group "
                  "fl/executor.py:_classic_virtual_chunk"),
    _rule(715, "token", "mallopt", "",
          "a shard-worker sets glibc's allocator policy once, in "
          "cli._keep_heap; a forked slot and serve_shard set none",
          allowed="cli.py:_keep_heap"),
    _rule(716, "token", "_fold_shared _AGGREGATION_CHUNK", "fl/",
          "every fold reaches the grids through one blocked kernel, "
          "with no float64 copy of a batch"),
    _rule(717, "call", "client_rng batch permutation",
          "fl/executor.py fl/fusion.py",
          "a virtual chunk's datasets and shuffle orders come through its "
          "memo's builder, and train_stacked draws nothing: it takes orders",
          allowed="fl/executor.py:_build_chunk_inputs "
                  "fl/fusion.py:train_cluster"),
    _rule(718, "call", "identify_by_resources identify_by_time "
          "assign_resource_adapted assign_predefined_levels", "",
          "Helios and every baseline see the same stragglers and volumes: "
          "they are identified and sized once, in the straggler-aware "
          "base's setup",
          allowed="core/straggler_aware.py:setup"),
    _rule(719, "name", "core baselines experiments repro.core "
          "repro.baselines repro.experiments", "fl/ nn/ data/ hardware/",
          "the substrate runs strategies it is handed: the strategy table "
          "and the runs that name strategies live in experiments/"),
)


def _covers(entry: str, rel: str, where: Optional[tuple] = None) -> bool:
    """Whether ``entry`` covers a module (``where`` None) or a node."""
    path, _, name = entry.partition(":")
    in_path = rel == path or (path[-1:] in ("", "/") and rel.startswith(path))
    return in_path and (where is None or not name or name in where)


def _walk(node: ast.AST, where: tuple, line: int) -> Iterator[tuple]:
    """``(node, enclosing definitions, line)``, docstrings skipped."""
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.Expr)
                and isinstance(getattr(child.value, "value", None), str)):
            at = getattr(child, "lineno", line)
            yield child, where, at
            yield from _walk(child, where + (child.name,)
                             if isinstance(child, _DEFS) else where, at)


def _hit(rule: Rule, node: ast.AST, aliases: dict) -> Optional[str]:
    """What ``node`` names that ``rule`` forbids, if anything."""
    if rule.shape == "token":
        field = _IDENTIFIER.get(type(node))
        found = ((*node.name.split("."), node.asname)
                 if isinstance(node, ast.alias)
                 else (getattr(node, field),) if field else ())
        return next((t for t in found if t in rule.names), None)
    if rule.shape == "call":
        if not isinstance(node, ast.Call):
            return None
        found = [resolve_call_name(node.func, aliases)
                 or getattr(node.func, "attr", None)]
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        base = getattr(node, "module", None)
        found = [f"{base}.{a.name}" if base else a.name for a in node.names]
    else:
        found = [resolve_call_name(node, aliases)]
    call = rule.shape == "call"
    return next((t for t in found if t and any(
        t == name or (t.endswith("." + name) if call
                      else t.startswith(name + "."))
        for name in rule.names)), None)


class ArchitectureChecker(Checker):
    name = "architecture"

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        rel = package_path(module.path)
        if rel is None or rel == _SELF:
            return
        seen, active = set(), {}
        for node, where, line in _walk(module.tree, (), 1):
            if where not in active:
                active[where] = [
                    rule for rule in RULES
                    if any(_covers(e, rel, where) for e in rule.scope)
                    and not any(_covers(e, rel, where) for e in rule.allowed)]
            for rule in active[where]:
                hit = ((rule.code, line) not in seen
                       and _hit(rule, node, module.aliases))
                if hit:
                    seen.add((rule.code, line))
                    yield Finding(path=module.path, line=line,
                                  code=rule.code, checker=self.name,
                                  message=f"{hit!r}: {rule.reason}")

    def check_project(self,
                      modules: Sequence[SourceModule]) -> Iterator[Finding]:
        by_rel = {rel: module for module in modules
                  if (rel := package_path(module.path)) is not None}
        root = by_rel.pop("__init__.py", None)
        for rule in RULES if root is not None else ():
            for entry in rule.scope + rule.allowed:
                name = entry.partition(":")[2]
                matched = [module for rel, module in by_rel.items()
                           if _covers(entry, rel)]
                if not matched or name and not any(
                        isinstance(node, _DEFS) and node.name == name
                        for module in matched
                        for node in ast.walk(module.tree)):
                    yield Finding(path=root.path, line=1, code="REPRO-A700",
                                  checker=self.name,
                                  message=f"{rule.code} names {entry!r}, "
                                          f"which matches no module or "
                                          f"definition: {rule.reason}")
