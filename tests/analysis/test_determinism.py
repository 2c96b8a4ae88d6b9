"""Determinism checker: known-bad fixtures fire, clean idioms stay quiet."""

from __future__ import annotations

import pytest

from repro.analysis import DeterminismChecker
from repro.analysis.determinism import DEFAULT_DETERMINISM_TARGETS

from .conftest import codes


def _lint_executor(lint, body):
    return lint({"repro/fl/executor.py": body}, [DeterminismChecker()])


class TestWallClock:
    def test_time_time_fires_d101_at_the_call_line(self, lint):
        findings = _lint_executor(lint, """
            import time

            def stamp():
                return time.time()
            """)
        assert codes(findings) == ["REPRO-D101"]
        assert findings[0].line == 5
        assert "time.time" in findings[0].message

    @pytest.mark.parametrize("call", [
        "time.monotonic()", "time.perf_counter()", "time.time_ns()",
        "datetime.datetime.now()",
    ])
    def test_other_clocks_fire_d101(self, lint, call):
        findings = _lint_executor(lint, f"""
            import time
            import datetime

            def stamp():
                return {call}
            """)
        assert codes(findings) == ["REPRO-D101"]

    def test_aliased_import_still_resolves(self, lint):
        findings = _lint_executor(lint, """
            from time import perf_counter as tick

            def stamp():
                return tick()
            """)
        assert codes(findings) == ["REPRO-D101"]


class TestGlobalRng:
    def test_module_level_numpy_random_fires_d102(self, lint):
        findings = _lint_executor(lint, """
            import numpy as np

            def draw(n):
                return np.random.rand(n)
            """)
        assert codes(findings) == ["REPRO-D102"]

    def test_stdlib_random_fires_d102(self, lint):
        findings = _lint_executor(lint, """
            import random

            def draw():
                return random.random()
            """)
        assert codes(findings) == ["REPRO-D102"]

    def test_seeded_default_rng_is_clean(self, lint):
        findings = _lint_executor(lint, """
            import numpy as np

            def draw(seed, n):
                return np.random.default_rng(seed).random(n)
            """)
        assert findings == []

    def test_unseeded_default_rng_fires_d102(self, lint):
        findings = _lint_executor(lint, """
            import numpy as np

            def draw(n):
                return np.random.default_rng().random(n)
            """)
        assert codes(findings) == ["REPRO-D102"]


class TestSetOrdering:
    def test_iterating_a_set_literal_fires_d103(self, lint):
        findings = _lint_executor(lint, """
            def visit(a, b):
                for item in {a, b}:
                    print(item)
            """)
        assert codes(findings) == ["REPRO-D103"]

    def test_list_of_set_call_fires_d103(self, lint):
        findings = _lint_executor(lint, """
            def order(items):
                return list(set(items))
            """)
        assert codes(findings) == ["REPRO-D103"]

    def test_comprehension_over_set_fires_d103(self, lint):
        findings = _lint_executor(lint, """
            def order(items):
                return [x + 1 for x in set(items)]
            """)
        assert codes(findings) == ["REPRO-D103"]

    def test_sorted_set_is_clean(self, lint):
        findings = _lint_executor(lint, """
            def order(items):
                return sorted(set(items))
            """)
        assert findings == []


class TestIdOrdering:
    def test_sorted_keyed_on_id_fires_d104(self, lint):
        findings = _lint_executor(lint, """
            def order(items):
                return sorted(items, key=id)
            """)
        assert codes(findings) == ["REPRO-D104"]

    def test_lambda_id_key_fires_d104(self, lint):
        findings = _lint_executor(lint, """
            def order(items):
                return sorted(items, key=lambda x: id(x))
            """)
        assert codes(findings) == ["REPRO-D104"]

    def test_plain_sort_is_clean(self, lint):
        findings = _lint_executor(lint, """
            def order(items):
                return sorted(items, key=str)
            """)
        assert findings == []


class TestEntropy:
    @pytest.mark.parametrize("call,module", [
        ("os.urandom(8)", "os"),
        ("uuid.uuid4()", "uuid"),
        ("secrets.token_hex(4)", "secrets"),
    ])
    def test_os_entropy_fires_d105(self, lint, call, module):
        findings = _lint_executor(lint, f"""
            import {module}

            def token():
                return {call}
            """)
        assert codes(findings) == ["REPRO-D105"]


_WALL_CLOCK_BODY = """
    import time

    def stamp():
        return time.time()
    """


class TestScope:
    def test_non_target_modules_are_out_of_scope(self, lint):
        findings = lint({"repro/fl/helpers.py": _WALL_CLOCK_BODY},
                        [DeterminismChecker()])
        assert findings == []

    @pytest.mark.parametrize("name", [
        "executor.py", "fusion.py", "compact.py", "aggregation.py",
        "codec.py",
    ])
    def test_every_critical_module_is_in_scope(self, lint, name):
        target = max(target for target in DEFAULT_DETERMINISM_TARGETS
                     if target.endswith("/" + name))
        findings = lint({f"repro/{target}": _WALL_CLOCK_BODY},
                        [DeterminismChecker()])
        assert codes(findings) == ["REPRO-D101"]

    @pytest.mark.parametrize("target", sorted(DEFAULT_DETERMINISM_TARGETS))
    def test_targets_are_package_relative_paths(self, lint, target):
        """A target is its path under the package, not its basename: the
        same file name in another package directory is not checked."""
        name = target.rsplit("/", 1)[1]
        elsewhere = f"repro/analysis/{name}"
        findings = lint({f"repro/{target}": _WALL_CLOCK_BODY,
                         elsewhere: _WALL_CLOCK_BODY},
                        [DeterminismChecker()])
        assert [(finding.code, finding.path.endswith(target))
                for finding in findings] == [("REPRO-D101", True)]

    def test_whole_package_lints_clean_with_every_target(self, lint):
        files = {f"repro/{target}": "X = 1\n"
                 for target in DEFAULT_DETERMINISM_TARGETS}
        files["repro/__init__.py"] = ""
        assert lint(files, [DeterminismChecker()]) == []

    def test_renamed_target_is_d100(self, lint):
        """Splitting or renaming a target (fl/executor.py -> fl/wire.py)
        must not switch its checks off silently."""
        files = {f"repro/{target}": "X = 1\n"
                 for target in DEFAULT_DETERMINISM_TARGETS
                 if target != "fl/executor.py"}
        files["repro/__init__.py"] = ""
        files["repro/fl/wire.py"] = _WALL_CLOCK_BODY
        findings = lint(files, [DeterminismChecker()])
        assert codes(findings) == ["REPRO-D100"]
        assert findings[0].path.endswith("repro/__init__.py")
        assert "'fl/executor.py' matches no module" in findings[0].message

    def test_partial_lint_asks_for_no_missing_target(self, lint):
        """Without the package's __init__.py (a lint of part of it), a
        missing target is not a finding."""
        assert lint({"repro/fl/codec.py": "X = 1\n"},
                    [DeterminismChecker()]) == []

    def test_allow_comment_silences_with_category(self, lint):
        findings = _lint_executor(lint, """
            import time

            def stamp():
                return time.time()  # lint: allow[determinism] - timeout
            """)
        assert findings == []
