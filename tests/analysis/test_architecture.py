"""Architecture rules: every row catches the code its retired grep caught.

Each test writes a skeleton ``repro`` package into ``tmp_path`` that
holds every file and definition the table names (so it lints clean),
plants one row's violation in it and checks the lines ``repro lint``
would print for it.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.architecture import RULES, ArchitectureChecker
from repro.analysis.engine import parse_modules, run_checkers

#: Per row: a module under the package and the code its grep matched.
PLANTED = {
    "REPRO-A701": ("nn/layers.py", """
        import numpy as np
        scale = np.float64(1.0)
        """),
    "REPRO-A702": ("fl/fusion.py", """
        import numpy as np
        logits = np.matmul(inputs, weights)
        """),
    "REPRO-A703": ("fl/executor.py", """
        import multiprocessing
        parent, child = multiprocessing.Pipe()
        """),
    "REPRO-A704": ("fl/transport.py", """
        import threading
        """),
    "REPRO-A705": ("cli.py", """
        parser.add_argument("--max-sessions", type=int)
        """),
    "REPRO-A706": ("fl/executor.py", """
        class RetryPolicy:
            attempts = 3
        """),
    "REPRO-A707": ("nn/masking.py", """
        def apply_mask(layer, gates):
            return layer
        """),
    "REPRO-A708": ("core/straggler_aware.py", """
        merged = self.server.aggregate(updates)
        """),
    "REPRO-A709": ("fl/executor.py", """
        from .codec import KIND_RUN
        """),
    "REPRO-A710": ("fl/transport.py", """
        conn.send_bytes(blob)
        """),
    "REPRO-A711": ("fl/transport.py", """
        import pickle
        payload = pickle.loads(blob)
        """),
    "REPRO-A712": ("fl/executor.py", """
        channel = handshake(channel, session=token)
        """),
    "REPRO-A713": ("fl/executor.py", """
        class SerialBackend:
            def run(self, client):
                train = client.local_train
                return train()
        """),
    "REPRO-A714": ("fl/executor.py", """
        update = client.local_train(weights)
        """),
    "REPRO-A715": ("fl/executor.py", """
        import ctypes
        mallopt = getattr(ctypes.CDLL(None), "mallopt")
        """),
    "REPRO-A716": ("fl/aggregation.py", """
        _AGGREGATION_CHUNK = 16
        """),
    "REPRO-A717": ("fl/fusion.py", """
        def train_stacked(model, images, labels, rngs):
            orders = [rng.permutation(len(labels[0])) for rng in rngs]
        """),
    "REPRO-A718": ("baselines/sync_fl.py", """
        class SynchronousFLStrategy:
            def setup(self, sim):
                self.report = identifier.identify_by_resources(devices)
        """),
    "REPRO-A719": ("fl/scenario.py", """
        from ..baselines import SynchronousFLStrategy
        """),
    "REPRO-A720": ("fl/executor.py", """
        import subprocess
        class ShardedSocketBackend:
            def _spawn_local_shard(self, argv):
                return subprocess.Popen(argv, stdout=subprocess.PIPE)
        """),
}

#: Code a row allows inside its exceptions: none of it is a finding.
ALLOWED = {
    "REPRO-A711": ("fl/codec.py", """
        def decode_message(blob):
            return pickle.loads(blob)
        """),
    "REPRO-A714": ("fl/executor.py", """
        def _train_resident_group(client, weights):
            return client.local_train(weights)
        """),
    "REPRO-A715": ("cli.py", """
        def _keep_heap(libc):
            mallopt = getattr(libc, "mallopt", None)
        """),
    "REPRO-A717": ("fl/executor.py", """
        def _build_chunk_inputs(factory, seed, client_ids):
            images, labels = factory.batch(client_ids)
            rngs = [client_rng(seed, client_id) for client_id in client_ids]
            return [rng.permutation(8) for rng in rngs]
        """),
    "REPRO-A718": ("core/straggler_aware.py", """
        class StragglerAwareStrategy:
            def setup(self, sim):
                report = identifier.identify_by_time(devices, rng=self.rng)
                return policy.assign_predefined_levels(report)
        """),
    "REPRO-A720": ("fl/executor.py", """
        from subprocess import PIPE, Popen
        class ShardedSocketBackend:
            def _start_slots(self, argv):
                return Popen(argv, stdout=PIPE)
        """),
}


def _skeleton():
    """``{path: source}`` holding every scope and definition of the table."""
    files = {"__init__.py": ""}
    for rule in RULES:
        for entry in rule.scope + rule.allowed:
            path, _, name = entry.partition(":")
            if not path or path.endswith("/"):
                path += "__init__.py"
            files.setdefault(path, "")
            if name:
                files[path] += f"\n\ndef {name}():\n    pass\n"
    return files


def _lint(tmp_path, files, planted=None):
    """Write the package, add ``planted`` ``(path, source)``, lint it and
    return the finding lines as ``repro lint`` prints them."""
    files = dict(files)
    if planted is not None:
        path, source = planted
        files[path] = files.get(path, "") + textwrap.dedent(source)
    root = tmp_path / "repro"
    for path, source in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(source, encoding="utf-8")
    modules, errors = parse_modules([root], repo_root=tmp_path)
    findings = errors + run_checkers(modules, [ArchitectureChecker()])
    return [finding.render() for finding in findings]


def test_the_skeleton_is_clean(tmp_path):
    assert _lint(tmp_path, _skeleton()) == []


@pytest.mark.parametrize("rule", RULES, ids=[rule.code for rule in RULES])
def test_every_row_catches_its_planted_violation(rule, tmp_path):
    assert rule.code in PLANTED, f"{rule.code} has no planted violation"
    lines = _lint(tmp_path, _skeleton(), PLANTED[rule.code])
    assert len(lines) == 1, lines
    assert f"repro/{PLANTED[rule.code][0]}:" in lines[0]
    assert f" {rule.code} " in lines[0]
    assert lines[0].endswith(rule.reason)


def test_every_planted_violation_belongs_to_a_row():
    assert set(PLANTED) == {rule.code for rule in RULES}


@pytest.mark.parametrize("code", sorted(PLANTED))
@pytest.mark.parametrize("wrap", ["docstring", "comment"])
def test_prose_never_matches(code, wrap, tmp_path):
    path, source = PLANTED[code]
    source = textwrap.dedent(source)
    if wrap == "docstring":
        source = f'"""Example:\n\n{source}"""\n'
    else:
        source = "".join(f"# {line}\n" for line in source.splitlines())
    assert _lint(tmp_path, _skeleton(), (path, source)) == []


def test_a_docstring_naming_a_retired_kind_is_clean(tmp_path):
    planted = ("fl/executor.py", '''
        def _route(kind):
            """Not ``from .codec import KIND_RUN``: fold and vfold only."""
            return kind
        ''')
    assert _lint(tmp_path, _skeleton(), planted) == []


@pytest.mark.parametrize("code", sorted(PLANTED))
def test_a_docstring_that_is_a_forbidden_string_is_clean(code, tmp_path):
    rule = next(rule for rule in RULES if rule.code == code)
    planted = (PLANTED[code][0], f'''
        class SerialBackend:
            """{rule.names[0]}"""
        ''')
    assert _lint(tmp_path, _skeleton(), planted) == []


@pytest.mark.parametrize("code", sorted(ALLOWED))
def test_code_inside_an_exception_is_allowed(code, tmp_path):
    assert _lint(tmp_path, _skeleton(), ALLOWED[code]) == []


def test_a_missing_scope_file_is_a_finding(tmp_path):
    files = _skeleton()
    del files["fl/transport.py"]
    lines = _lint(tmp_path, files)
    assert {line.split()[1] for line in lines} == {"REPRO-A700"}
    assert any("REPRO-A704 names 'fl/transport.py'" in line
               for line in lines)


def test_a_missing_exception_function_is_a_finding(tmp_path):
    files = _skeleton()
    files["cli.py"] = files["cli.py"].replace("_keep_heap", "_set_heap")
    lines = _lint(tmp_path, files)
    assert len(lines) == 1
    assert "REPRO-A700 REPRO-A715 names 'cli.py:_keep_heap'" in lines[0]


def test_a_partial_tree_checks_rules_without_requiring_scopes(tmp_path):
    # Without the package __init__.py a lint covers part of the package:
    # rules still apply to what is there, missing scopes are no finding.
    lines = _lint(tmp_path, {}, PLANTED["REPRO-A704"])
    assert [line.split()[1] for line in lines] == ["REPRO-A704"]
