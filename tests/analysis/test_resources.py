"""Resource checker: acquisitions must visibly hand off their lifetime."""

from __future__ import annotations

import pytest

from repro.analysis import ResourceChecker

from .conftest import codes


def _lint_mod(lint, body):
    return lint({"mod.py": body}, [ResourceChecker()])


class TestLeaks:
    def test_unmanaged_shared_memory_fires_r501(self, lint):
        findings = _lint_mod(lint, """
            from multiprocessing.shared_memory import SharedMemory

            def scratch():
                shm = SharedMemory(create=True, size=64)
                shm.buf[0] = 1
            """)
        assert codes(findings) == ["REPRO-R501"]
        assert "SharedMemory" in findings[0].message

    def test_unmanaged_socket_fires_r501(self, lint):
        findings = _lint_mod(lint, """
            import socket

            def probe(addr):
                sock = socket.create_connection(addr)
                sock.sendall(b"ping")
            """)
        assert codes(findings) == ["REPRO-R501"]

    def test_self_storage_without_teardown_fires_r501(self, lint):
        findings = _lint_mod(lint, """
            import socket

            class Holder:
                def __init__(self):
                    self._sock = socket.socket()
            """)
        assert codes(findings) == ["REPRO-R501"]


class TestAcceptedLifetimes:
    def test_with_block_is_managed(self, lint):
        findings = _lint_mod(lint, """
            import socket

            def probe(addr):
                with socket.create_connection(addr) as sock:
                    sock.sendall(b"ping")
            """)
        assert findings == []

    def test_try_finally_is_managed(self, lint):
        findings = _lint_mod(lint, """
            from multiprocessing.shared_memory import SharedMemory

            def scratch():
                shm = SharedMemory(create=True, size=64)
                try:
                    shm.buf[0] = 1
                finally:
                    shm.close()
            """)
        assert findings == []

    def test_self_storage_with_teardown_is_managed(self, lint):
        findings = _lint_mod(lint, """
            import socket

            class Holder:
                def __init__(self):
                    self._sock = socket.socket()

                def close(self):
                    self._sock.close()
            """)
        assert findings == []

    def test_ownership_container_with_teardown_is_managed(self, lint):
        findings = _lint_mod(lint, """
            from multiprocessing.shared_memory import SharedMemory

            class Arena:
                def __init__(self):
                    self._published = []

                def publish(self):
                    self._published.append(
                        SharedMemory(create=True, size=64))

                def close(self):
                    for shm in self._published:
                        shm.close()
            """)
        assert findings == []

    def test_returned_resource_is_managed(self, lint):
        findings = _lint_mod(lint, """
            import socket

            def connect(addr):
                sock = socket.create_connection(addr)
                return sock
            """)
        assert findings == []

    def test_resource_handed_to_a_wrapper_is_managed(self, lint):
        findings = _lint_mod(lint, """
            import socket

            def connect(addr, wrap):
                return wrap(socket.create_connection(addr))
            """)
        assert findings == []

    def test_allow_comment_silences(self, lint):
        findings = _lint_mod(lint, """
            import socket

            def probe(addr):
                sock = socket.create_connection(addr)  # lint: allow[resource]
                sock.sendall(b"ping")
            """)
        assert findings == []


class TestRealModules:
    @pytest.mark.parametrize("module_name", ["transport", "codec"])
    def test_shipping_modules_are_clean(self, module_name):
        import importlib
        from pathlib import Path

        from repro.analysis.engine import parse_modules, run_checkers

        module = importlib.import_module(f"repro.fl.{module_name}")
        modules, errors = parse_modules([Path(module.__file__)])
        assert errors == []
        assert run_checkers(modules, [ResourceChecker()]) == []
