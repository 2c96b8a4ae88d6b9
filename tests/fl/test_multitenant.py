"""Multi-tenant shard serving: several parents sharing one fleet.

The acceptance criterion of the concurrent shard server: two parent
sessions running against the *same* shard fleet at the same time each
produce histories bit-identical to a serial run — interleaved batches,
a private resident fleet per session — and one parent dying abruptly
mid-batch neither corrupts nor delays the sibling's result beyond its
own queued request.

The fleets here are in-process :class:`~repro.fl.transport.ShardServer`
instances on daemon threads (same event loop and worker the CLI runs),
so the suite stays tier-1 fast while exercising the real server.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.baselines import SynchronousFLStrategy
from repro.fl import ShardedSocketBackend
from repro.fl.transport import (ShardServer, TransportError,
                                connect_to_shard, format_address)

from ..conftest import make_tiny_simulation


@contextlib.contextmanager
def _shard_fleet(num_shards=2, **kwargs):
    """In-process shard servers on threads; yields ``host:port`` strings."""
    servers, threads = [], []
    try:
        for _ in range(num_shards):
            server = ShardServer(**kwargs)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            servers.append(server)
            threads.append(thread)
        yield [format_address(server.address) for server in servers]
    finally:
        for server in servers:
            try:
                channel = connect_to_shard(server.address, timeout=5)
                channel.send(("shutdown", None))
                channel.close()
            except (TransportError, OSError):
                pass
        for thread in threads:
            thread.join(timeout=15)
            assert not thread.is_alive()


def _run_collaboration(backend, num_cycles=3):
    """History + final global weights of one tiny collaboration."""
    sim = make_tiny_simulation()
    if backend is not None:
        sim.set_backend(backend)
    try:
        history = sim.run(SynchronousFLStrategy(straggler_top_k=1),
                          num_cycles=num_cycles)
        weights = sim.server.get_global_weights()
    finally:
        sim.close()
    return history, weights


def _assert_identical(actual, reference):
    history, weights = actual
    ref_history, ref_weights = reference
    assert history.accuracies() == ref_history.accuracies()
    assert history.times_s() == ref_history.times_s()
    for name, expected in ref_weights.items():
        np.testing.assert_array_equal(weights[name], expected,
                                      err_msg=name)


def _sleep_return(seconds):
    """Module-level map function (picklable for shard traffic)."""
    time.sleep(seconds)
    return seconds


class TestConcurrentParents:
    def test_two_parents_share_one_fleet_bit_identical(self):
        """Two concurrent parent runs on one 2-shard fleet — different
        cycle counts so their batches genuinely interleave — must both
        match their serial references bit for bit."""
        reference_a = _run_collaboration(None, num_cycles=3)
        reference_b = _run_collaboration(None, num_cycles=4)
        with _shard_fleet(2) as addresses:
            results, errors = {}, {}

            def parent(name, cycles):
                backend = ShardedSocketBackend(shards=addresses)
                try:
                    results[name] = _run_collaboration(backend,
                                                       num_cycles=cycles)
                except Exception as exc:  # surfaced by the main thread
                    errors[name] = exc

            threads = [threading.Thread(target=parent, args=("a", 3)),
                       threading.Thread(target=parent, args=("b", 4))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
                assert not thread.is_alive(), "a parent run wedged"
            assert not errors, f"a parent run failed: {errors}"
            _assert_identical(results["a"], reference_a)
            _assert_identical(results["b"], reference_b)

    def test_sequential_parents_reuse_one_fleet(self):
        """Back-to-back runs by different parents on one living fleet:
        each starts clean (bye retires the predecessor's session) and
        stays serial-identical."""
        reference = _run_collaboration(None, num_cycles=3)
        with _shard_fleet(2) as addresses:
            for _ in range(2):
                backend = ShardedSocketBackend(shards=addresses)
                _assert_identical(_run_collaboration(backend, num_cycles=3),
                                  reference)

    def test_parent_killed_mid_batch_leaves_sibling_serial_identical(self):
        """One parent dies abruptly (no bye — the SIGKILL scenario) with
        a request still executing on the shared fleet.  The surviving
        parent's run must complete bit-identical to serial, and the dead
        parent's session must stay resumable."""
        reference = _run_collaboration(None, num_cycles=3)
        with _shard_fleet(2) as addresses:
            doomed = connect_to_shard(addresses[0], timeout=5,
                                      session="doomed-parent")
            # Leave a slow request in flight, then tear the socket down
            # abruptly — the OS-level close a SIGKILLed parent produces.
            doomed.send(("map", (_sleep_return, [(0, 1.5)])))
            time.sleep(0.2)  # let the worker pick it up
            doomed._socket().close()

            backend = ShardedSocketBackend(shards=addresses)
            _assert_identical(_run_collaboration(backend, num_cycles=3),
                              reference)

            again = connect_to_shard(addresses[0], timeout=5,
                                     session="doomed-parent")
            assert again.resumed is True
            again.send(("bye", None))
            again.close()
