"""End-to-end and failure-injection tests of the sharded socket backend.

Five guarantees under test:

* a 2-shard localhost fleet produces *bit-identical* histories to the
  serial backend under a fixed seed (the trust anchor of the whole
  multi-host story);
* a shard dying mid-cycle aborts the batch with a :class:`ShardError`
  naming the shard, and ``close()`` leaves no orphan processes or
  sockets — double-close, close-after-shard-death, close racing close
  and close racing an in-flight batch included;
* under ``on_failure="rebalance"`` a SIGKILLed shard does *not* end the
  run: the topology is repaired (respawn in place, or rebalance onto
  surviving external shards) and the finished history is bit-identical
  to serial — the acceptance criterion of the failover substrate;
* clean close/reconnect semantics: a closed backend lazily respawns its
  shards and continues every client's RNG stream exactly where it
  stopped, and parents taking turns on one living fleet each start
  clean;
* a cold batch launches every spawned shard it needs before it reads
  any announce, and a worker that dies before announcing takes the
  whole step's processes down with the backend.
"""

import contextlib
import hashlib
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines import SynchronousFLStrategy
from repro.experiments.common import (SCALES, ExperimentSetting,
                                      make_simulation_factory)
from repro.fl import (ClientConfig, FederatedSimulation, FLClient, FLServer,
                      ShardedSocketBackend, ShardError, TrainingJob, executor)
from repro.fl.chaos import (ChaosController, FaultPlan, FrameFault,
                            StragglerWave)
from repro.fl.executor import _read_shard_announce, _reap_shard_process
from repro.fl.transport import (ShardServer, TransportError,
                                connect_to_shard, format_address)

from ..conftest import (FAST_DEVICE, make_tiny_dataset, make_tiny_model,
                        make_tiny_simulation, train_clients)


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


def _assert_no_orphans(backend):
    """The backend holds no live channels and no live shard processes."""
    assert all(slot.channel is None and slot.proc is None
               and slot.address is None for slot in backend._slots)


def _noisy_tiny_model():
    """Floods the caller's stdout far past the OS pipe buffer."""
    print("n" * 100_000)
    return make_tiny_model()


def _slow_first_batch(backend, sim, seconds=2.0):
    """Warm ``backend``'s one shard, then make its next batch sleep
    ``seconds`` inside the shard (a chaos straggler wave) — the
    close-race probe."""
    sim.set_backend(backend)
    backend.check_health()  # shard warm
    controller = ChaosController(FaultPlan(straggler_waves=(
        StragglerWave(cycles=(1,), slots=(0,), seconds=seconds),)))
    backend.attach_chaos(controller)
    controller.begin_cycle(1)


def _kill_shard(backend, slot):
    """SIGKILL one auto-spawned shard process and wait for it to die."""
    proc = backend._procs[slot]
    proc.kill()
    proc.wait(timeout=10)
    return proc


@contextlib.contextmanager
def _shard_fleet(num_shards=2):
    """In-process shard servers on threads; yields ``host:port`` strings."""
    servers, threads = [], []
    try:
        for _ in range(num_shards):
            server = ShardServer()
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


def _spawn_external_shard():
    """Start a ``repro shard-worker`` subprocess; returns (proc, addr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-worker", "--port", "0"],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        host, port = _read_shard_announce(proc, timeout=30)
    except Exception:
        _reap_shard_process(proc, timeout=0.0)
        raise
    return proc, f"{host}:{port}"


class _ShardKillingSync(SynchronousFLStrategy):
    """Synchronous FL that SIGKILLs one shard before a chosen cycle.

    The kill happens *between* batches (before the cycle's trainings are
    dispatched) — the scenario of the acceptance criterion: a shard host
    dies somewhere in a multi-hour run and the next cycle notices.
    """

    def __init__(self, backend, kill_before_cycle, slot=0, **kwargs):
        super().__init__(**kwargs)
        self._backend = backend
        self._kill_before_cycle = kill_before_cycle
        self._slot = slot
        self.killed = False

    def execute_cycle(self, cycle, sim):
        if cycle == self._kill_before_cycle and not self.killed:
            self.killed = True
            _kill_shard(self._backend, self._slot)
        return super().execute_cycle(cycle, sim)


def test_announce_read_survives_leading_stdout_junk():
    """Regression: output flushed in the same pipe chunk as the announce
    line (import-time warning, sitecustomize print) must not make the
    spawn time out."""
    import subprocess
    import sys

    from repro.fl.executor import _read_shard_announce
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "print('junk line'); "
         "print('SHARD_LISTENING 127.0.0.1 1234', flush=True); "
         "import time; time.sleep(30)"],
        stdout=subprocess.PIPE, text=True)
    try:
        assert _read_shard_announce(proc, timeout=10) == ("127.0.0.1", 1234)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_noisy_shard_stdout_does_not_deadlock():
    """Regression: an auto-spawned shard writing to stdout mid-batch must
    not fill the announce pipe and hang the fleet (the parent drains it)."""
    backend = ShardedSocketBackend(max_workers=1)
    clients = [FLClient(client_id=index, dataset=make_tiny_dataset(40, index),
                        device=FAST_DEVICE, model_factory=_noisy_tiny_model,
                        config=ClientConfig(batch_size=20))
               for index in range(3)]
    sim = FederatedSimulation(clients, FLServer(make_tiny_model), (1, 8, 8),
                              backend=backend)
    try:
        summaries = sim.train_and_aggregate([0, 1, 2])
        assert [summary.index for summary in summaries] == [0, 1, 2]
    finally:
        sim.close()
    _assert_no_orphans(backend)


class TestTwoShardFleet:
    def test_history_bit_identical_to_serial(self):
        """Acceptance: a 2-shard localhost fleet end-to-end equals serial."""
        reference_history, reference_weights = _run_collaboration(None)
        backend = ShardedSocketBackend(max_workers=2)
        history, weights = _run_collaboration(backend)
        assert history.accuracies() == reference_history.accuracies()
        assert history.times_s() == reference_history.times_s()
        assert ([record.mean_train_loss for record in history.records]
                == [record.mean_train_loss
                    for record in reference_history.records])
        for key in reference_weights:
            np.testing.assert_array_equal(weights[key],
                                          reference_weights[key])
        _assert_no_orphans(backend)

    def test_fleet_spans_both_shards(self):
        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2)
        try:
            train_clients(sim, sim.client_indices())
            assert set(backend._placement.values()) == {0, 1}
            assert len(backend._procs) == 2
            assert all(proc.poll() is None
                       for proc in backend._procs.values())
        finally:
            sim.close()
        _assert_no_orphans(backend)

    def test_dispatch_bytes_measured_and_match_persistent(self):
        """Warm sharded dispatch is the persistent wire format on sockets:
        byte-for-byte the same payload size."""
        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2)
        weights = sim.server.get_global_weights()
        jobs = [TrainingJob(index=index, weights=weights)
                for index in sim.client_indices()]
        try:
            cold = backend.dispatch_payload_bytes(
                sim.clients, jobs, sim.server.structure)
            sim.train_and_aggregate(sim.client_indices())
            assert backend.last_dispatch_bytes == cold
            warm = backend.dispatch_payload_bytes(
                sim.clients, jobs, sim.server.structure)
            assert warm < cold  # specs (datasets!) no longer travel
        finally:
            sim.close()

        persistent_sim = make_tiny_simulation()
        persistent = persistent_sim.set_backend("persistent", max_workers=2)
        try:
            persistent_sim.train_and_aggregate(
                persistent_sim.client_indices())
            snapshot = persistent_sim.server.get_global_weights()
            persistent_warm = persistent.dispatch_payload_bytes(
                persistent_sim.clients,
                [TrainingJob(index=job.index, weights=snapshot)
                 for job in jobs],
                persistent_sim.server.structure)
        finally:
            persistent_sim.close()
        assert warm == persistent_warm


def _weights_digest(weights):
    digest = hashlib.sha256()
    for key in sorted(weights):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(weights[key]).tobytes())
    return digest.hexdigest()


def _first_batch_digest(backend):
    """Digest of the global model after one batch of the whole tiny
    fleet (three clients: one per slot of a cold 3-slot backend)."""
    sim = make_tiny_simulation()
    if backend is not None:
        sim.set_backend(backend)
    try:
        sim.train_and_aggregate(sim.client_indices())
        return _weights_digest(sim.server.get_global_weights())
    finally:
        sim.close()


class TestColdStartTogether:
    """A batch starts every spawned slot it needs in one step: all the
    workers are launched before any announce is read."""

    def test_every_worker_launches_before_the_first_announce(self,
                                                             monkeypatch):
        backend = ShardedSocketBackend(max_workers=3)
        launched_at_read = []
        read = executor._read_shard_announce

        def recording_read(proc, timeout):
            launched_at_read.append(len(backend._procs))
            return read(proc, timeout)

        monkeypatch.setattr(executor, "_read_shard_announce", recording_read)
        digest = _first_batch_digest(backend)
        assert launched_at_read == [3, 3, 3]
        assert digest == _first_batch_digest(None)
        _assert_no_orphans(backend)

    def test_a_worker_exiting_before_its_announce_reaps_the_step(
            self, monkeypatch):
        launched = []
        popen = subprocess.Popen

        def popen_slot_1_exits(argv, **kwargs):
            if len(launched) == 1:
                argv = [sys.executable, "-c", "raise SystemExit(3)"]
            launched.append(popen(argv, **kwargs))
            return launched[-1]

        monkeypatch.setattr(subprocess, "Popen", popen_slot_1_exits)
        backend = ShardedSocketBackend(max_workers=3)
        with pytest.raises(ShardError, match=r"exit code 3") as excinfo:
            _first_batch_digest(backend)
        assert excinfo.value.slot == 1
        assert len(launched) == 3
        _assert_no_orphans(backend)
        # Announced (slot 0) or not (slot 2), every launched worker is
        # gone and forgotten by the atexit hook.
        assert all(proc.poll() is not None for proc in launched)
        assert not set(launched) & executor._SPAWNED_SHARD_PROCS

    def test_a_respawn_leaves_the_survivor_connected(self, monkeypatch):
        """Under rebalance one killed slot is respawned alone: the
        survivor keeps its connection and its residents (no spec is
        re-shipped to it), and the retried batch equals serial."""
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim,
                                      serial_sim.client_indices())

        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2,
                                  on_shard_failure="rebalance")
        built = _record_payloads(backend)
        announces = []
        read = executor._read_shard_announce

        def recording_read(proc, timeout):
            announces.append(proc.pid)
            return read(proc, timeout)

        monkeypatch.setattr(executor, "_read_shard_announce", recording_read)
        try:
            train_clients(sim, sim.client_indices())
            survivor = backend._slots[1].channel
            survivor_pid = backend._slots[1].proc.pid
            killed_pid = _kill_shard(backend, 0).pid
            first_built, first_announces = len(built), len(announces)
            second = train_clients(sim, sim.client_indices())
            assert backend._slots[1].channel is survivor
            assert backend._slots[1].proc.pid == survivor_pid
            assert backend._slots[0].proc.pid not in (killed_pid,
                                                      survivor_pid)
            assert announces[first_announces:] == [backend._slots[0].proc.pid]
            on_survivor = {index for index, slot
                           in backend._placement.items() if slot == 1}
        finally:
            sim.close()
        _assert_no_orphans(backend)
        shipped = {slot: {group.index for group in batch.groups
                          if group.spec is not None}
                   for batches in built[first_built:]
                   for slot, batch in batches.items()}
        assert on_survivor and not shipped.get(1)
        assert shipped[0]
        _assert_updates_equal(serial_second, second)


class TestFailureInjection:
    def test_shard_killed_mid_cycle_propagates_identity(self):
        """Killing a shard worker aborts the batch with the shard's
        identity in the error, and tears the fleet down orphan-free."""
        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2)
        try:
            train_clients(sim, sim.client_indices())  # shards warm
            victim_slot = 0
            victim = backend._procs[victim_slot]
            survivor = backend._procs[1]
            address = backend.shard_address(victim_slot)
            victim.kill()
            victim.wait(timeout=10)
            with pytest.raises(ShardError) as excinfo:
                train_clients(sim, sim.client_indices())
            error = excinfo.value
            assert error.slot == victim_slot
            assert error.address == address
            assert f"{address[0]}:{address[1]}" in str(error)
            # The batch abort closed the backend: both shard processes
            # are gone, no sockets remain.
            _assert_no_orphans(backend)
            assert survivor.poll() is not None
        finally:
            sim.close()  # idempotent on the already-closed backend
        _assert_no_orphans(backend)

    def test_close_after_shard_death_is_safe(self):
        """Regression: close() on a backend whose shard was killed
        externally must not raise (and stays idempotent)."""
        backend = ShardedSocketBackend(max_workers=2)
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            for proc in backend._procs.values():
                proc.kill()
                proc.wait(timeout=10)
        finally:
            sim.close()
        sim.close()
        backend.close()
        _assert_no_orphans(backend)

    def test_unreachable_shard_aborts_and_closes(self):
        """A shard address nobody listens on fails the batch with the
        shard's identity and leaves the backend fully closed."""
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        backend = ShardedSocketBackend(
            shards=[f"127.0.0.1:{free_port}"])
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            with pytest.raises(ShardError) as excinfo:
                train_clients(sim, sim.client_indices())
            assert excinfo.value.address == ("127.0.0.1", free_port)
            _assert_no_orphans(backend)
        finally:
            sim.close()

    def test_training_error_does_not_kill_shards(self):
        """A job raising *inside* a shard surfaces the original exception
        (not a ShardError) and leaves the shards serving."""
        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2)
        weights = sim.server.get_global_weights()
        try:
            train_clients(sim, sim.client_indices())
            with pytest.raises(ValueError, match="local_epochs"):
                train_clients(sim, [0], weights=weights, local_epochs=0)
            assert all(proc.poll() is None
                       for proc in backend._procs.values())
            # The failed client's replica was dropped; the next batch
            # re-ships its spec and trains fine.
            updates = train_clients(sim, sim.client_indices())
            assert [update.client_id for update in updates] == [0, 1, 2]
        finally:
            sim.close()
        _assert_no_orphans(backend)


class TestCloseReconnect:
    def test_reuse_after_close_continues_rng_streams(self):
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim,
            serial_sim.client_indices())

        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2)
        try:
            train_clients(sim, sim.client_indices())
            first_procs = list(backend._procs.values())
            backend.close()
            _assert_no_orphans(backend)
            assert all(proc.poll() is not None for proc in first_procs)
            # Lazy respawn: fresh shard processes, specs re-shipped, RNG
            # streams continued — bit-identical to uninterrupted serial.
            second = train_clients(sim, sim.client_indices())
        finally:
            sim.close()
        for expected, actual in zip(serial_second, second):
            assert expected.train_loss == actual.train_loss
            for key in expected.weights:
                np.testing.assert_array_equal(expected.weights[key],
                                              actual.weights[key])

    def test_sequential_parents_reuse_one_fleet(self):
        """Back-to-back runs by different parents on one living fleet:
        each starts clean (a shard's residents die with the previous
        parent's connection) and stays serial-identical."""
        reference_history, reference_weights = _run_collaboration(None)
        with _shard_fleet(2) as addresses:
            for _ in range(2):
                backend = ShardedSocketBackend(shards=addresses)
                history, weights = _run_collaboration(backend)
                assert history.accuracies() == reference_history.accuracies()
                assert history.times_s() == reference_history.times_s()
                for key in reference_weights:
                    np.testing.assert_array_equal(weights[key],
                                                  reference_weights[key])

    def test_fleet_mutations_stay_bit_identical(self):
        """add_client + device swap mid-run match a serial run exactly."""
        def run(backend_name):
            from repro.fl import ClientConfig, FLClient
            from ..conftest import make_tiny_dataset, make_tiny_model
            sim = make_tiny_simulation()
            if backend_name != "serial":
                sim.set_backend(backend_name, max_workers=2)
            try:
                train_clients(sim, sim.client_indices())
                sim.add_client(FLClient(
                    client_id=3, dataset=make_tiny_dataset(40, seed=9),
                    device=FAST_DEVICE.scaled(name="joiner"),
                    model_factory=make_tiny_model,
                    config=ClientConfig(batch_size=20)))
                sim.set_client_device(
                    1, FAST_DEVICE.scaled(compute=0.5, name="throttled"))
                return train_clients(sim, sim.client_indices())
            finally:
                sim.close()

        serial_updates = run("serial")
        sharded_updates = run("sharded")
        assert [update.client_name for update in sharded_updates] \
            == [update.client_name for update in serial_updates]
        for expected, actual in zip(serial_updates, sharded_updates):
            assert expected.train_loss == actual.train_loss
            for key in expected.weights:
                np.testing.assert_array_equal(expected.weights[key],
                                              actual.weights[key])


def _assert_updates_equal(expected_updates, actual_updates):
    assert len(expected_updates) == len(actual_updates)
    for expected, actual in zip(expected_updates, actual_updates):
        assert expected.client_id == actual.client_id
        assert expected.train_loss == actual.train_loss
        for key in expected.weights:
            np.testing.assert_array_equal(expected.weights[key],
                                          actual.weights[key])


def _record_payloads(backend):
    """Append every batch dict ``backend`` builds to the returned list."""
    built = []
    build = backend._build_payloads

    def recording_build(*args, **kwargs):
        batches, order = build(*args, **kwargs)
        built.append(batches)
        return batches, order

    backend._build_payloads = recording_build
    return built


class TestRebalanceFailover:
    """``on_failure="rebalance"``: a dead shard costs time, not the run."""

    def test_sigkill_between_cycles_completes_bit_identical(self):
        """Acceptance: a 3-shard run with one shard SIGKILLed between
        cycles finishes under rebalance with a history bit-identical to
        serial, and the fleet is healed afterwards."""
        reference_history, reference_weights = _run_collaboration(None)
        backend = ShardedSocketBackend(max_workers=3, on_failure="rebalance")
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        strategy = _ShardKillingSync(backend, kill_before_cycle=2,
                                     straggler_top_k=1)
        try:
            history = sim.run(strategy, num_cycles=3)
            weights = sim.server.get_global_weights()
            assert strategy.killed
            # The dead slot was respawned in place: 3 live shards again.
            assert len(backend._procs) == 3
            assert all(proc.poll() is None
                       for proc in backend._procs.values())
            assert all(slot.state == "up" for slot in backend._slots)
        finally:
            sim.close()
        _assert_no_orphans(backend)
        assert history.accuracies() == reference_history.accuracies()
        assert history.times_s() == reference_history.times_s()
        assert ([record.mean_train_loss for record in history.records]
                == [record.mean_train_loss
                    for record in reference_history.records])
        for key in reference_weights:
            np.testing.assert_array_equal(weights[key],
                                          reference_weights[key])

    def test_sigkill_under_abort_still_fails_fast_with_identity(self):
        """The flip side of the acceptance criterion: the default abort
        policy still names the dead shard and tears the fleet down."""
        backend = ShardedSocketBackend(max_workers=3)  # abort is the default
        assert backend.on_failure == "abort"
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            address = backend.shard_address(0)
            _kill_shard(backend, 0)
            with pytest.raises(ShardError) as excinfo:
                train_clients(sim, sim.client_indices())
            assert excinfo.value.slot == 0
            assert excinfo.value.address == address
            _assert_no_orphans(backend)
        finally:
            sim.close()

    def test_kill_with_inflight_connection_retries_whole_batch(self):
        """The killed shard's channel is still open when the next batch
        starts — its EOF fails the slot before anything is dispatched,
        and the whole batch is retried bit-identically on the repaired
        fleet."""
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim,
            serial_sim.client_indices())

        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2,
                                  on_shard_failure="rebalance")
        try:
            train_clients(sim, sim.client_indices())
            _kill_shard(backend, 0)
            second = train_clients(sim, sim.client_indices())
            assert len(backend._procs) == 2
            assert all(proc.poll() is None
                       for proc in backend._procs.values())
        finally:
            sim.close()
        _assert_no_orphans(backend)
        _assert_updates_equal(serial_second, second)

    def test_external_shard_death_rebalances_onto_survivor(self):
        """With explicit addresses there is nothing to respawn: the dead
        shard's slot is declared dead after its reconnect attempt fails
        and its clients move to the surviving shard."""
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim,
            serial_sim.client_indices())

        victim_proc, victim_addr = _spawn_external_shard()
        survivor_proc, survivor_addr = _spawn_external_shard()
        backend = ShardedSocketBackend(
            shards=[victim_addr, survivor_addr],
            on_failure="rebalance")
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            victim_proc.kill()
            victim_proc.wait(timeout=10)
            second = train_clients(sim, sim.client_indices())
            assert [slot.state for slot in backend._slots] == ["dead", "up"]
            # Every client now lives on the survivor.
            assert set(backend._placement.values()) == {1}
        finally:
            sim.close()
            for proc in (victim_proc, survivor_proc):
                _reap_shard_process(proc, timeout=0.0)
        _assert_updates_equal(serial_second, second)

    def test_severed_connection_reships_specs_bit_identical(self):
        """An external shard's connection drops while the shard lives
        on: the shard forgets that connection's residents, the backend
        reconnects and re-ships the slot's specs (and only that slot's),
        and the retried batch is bit-identical to serial."""
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim,
            serial_sim.client_indices())

        with _shard_fleet(2) as addresses:
            backend = ShardedSocketBackend(shards=addresses,
                                           on_failure="rebalance")
            built = _record_payloads(backend)
            sim = make_tiny_simulation()
            sim.set_backend(backend)
            try:
                train_clients(sim, sim.client_indices())
                severed = backend._slots[0].channel
                severed._socket().shutdown(socket.SHUT_RDWR)
                first_built = len(built)
                second = train_clients(sim, sim.client_indices())
                assert backend._slots[0].channel is not severed
                assert [slot.state for slot in backend._slots] == ["up",
                                                                   "up"]
                on_severed = {index for index, slot
                              in backend._placement.items() if slot == 0}
            finally:
                sim.close()
        reshipped = {group.index for batches in built[first_built:]
                     for batch in batches.values() for group in batch.groups
                     if group.spec is not None}
        assert on_severed and reshipped == on_severed
        _assert_updates_equal(serial_second, second)

    def test_reset_spawned_shard_is_reconnected_not_respawned(self):
        """A chaos ``reset`` costs an auto-spawned shard its connection,
        not its process: the backend reconnects to the same process,
        re-ships the specs of that slot's clients (and only theirs),
        and the retried batch is bit-identical to serial."""
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim,
            serial_sim.client_indices())

        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2,
                                  on_shard_failure="rebalance")
        built = _record_payloads(backend)
        resets = [FrameFault("reset")]
        try:
            train_clients(sim, sim.client_indices())
            pid = backend._slots[0].proc.pid
            backend._slots[0].channel.fault_injector = (
                lambda kind, size: resets.pop() if resets else None)
            first_built = len(built)
            second = train_clients(sim, sim.client_indices())
            assert not resets
            assert backend._slots[0].proc.pid == pid
            assert [slot.state for slot in backend._slots] == ["up", "up"]
            on_reset = {index for index, slot
                        in backend._placement.items() if slot == 0}
        finally:
            sim.close()
        reshipped = {group.index for batches in built[first_built:]
                     for batch in batches.values() for group in batch.groups
                     if group.spec is not None}
        assert on_reset and reshipped == on_reset
        _assert_updates_equal(serial_second, second)

    def test_all_shards_dead_aborts_with_shard_error(self):
        """Rebalance cannot conjure capacity: when every shard is gone
        and respawn is impossible (external topology), the batch fails
        with a ShardError and the backend is closed."""
        shard_proc, shard_addr = _spawn_external_shard()
        backend = ShardedSocketBackend(
            shards=[shard_addr], on_failure="rebalance")
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            shard_proc.kill()
            shard_proc.wait(timeout=10)
            with pytest.raises(ShardError):
                train_clients(sim, sim.client_indices())
            _assert_no_orphans(backend)
        finally:
            sim.close()
            _reap_shard_process(shard_proc, timeout=0.0)


class TestHeartbeat:
    def test_probe_reports_dead_shard(self):
        backend = ShardedSocketBackend(max_workers=2)
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            assert backend.check_health() == []
            _kill_shard(backend, 0)
            assert backend.check_health() == [0]
            # The dead slot's channel was discarded; the survivor's is
            # intact and still serving.
            assert sorted(backend._channels) == [1]
        finally:
            sim.close()

    def test_dead_shard_rebalances_before_dispatch(self):
        """A shard killed between batches fails the pre-batch check (its
        channel reads EOF) — no ping, and no survivor trains a batch
        that is then thrown away."""
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim,
            serial_sim.client_indices())

        backend = ShardedSocketBackend(max_workers=2, on_failure="rebalance")
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            _kill_shard(backend, 0)
            second = train_clients(sim, sim.client_indices())
        finally:
            sim.close()
        _assert_no_orphans(backend)
        _assert_updates_equal(serial_second, second)

    def test_dead_shard_aborts_before_dispatch(self):
        backend = ShardedSocketBackend(max_workers=2)
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            _kill_shard(backend, 0)
            with pytest.raises(ShardError, match="waiting for a batch"):
                train_clients(sim, sim.client_indices())
            _assert_no_orphans(backend)
        finally:
            sim.close()


class TestCloseRaces:
    def test_concurrent_close_from_two_threads(self):
        backend = ShardedSocketBackend(max_workers=1)
        backend.check_health()
        errors = []

        def close_backend():
            try:
                backend.close()
            except BaseException as exc:  # pragma: no cover - the bug
                errors.append(exc)

        threads = [threading.Thread(target=close_backend)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors
        _assert_no_orphans(backend)

    def test_close_during_inflight_batch_does_not_resurrect_rebalance(self):
        """Regression: under on_failure='rebalance', close() racing an
        in-flight batch must not be 'repaired' by the failover — the
        transports died because the owner shut the backend down, and a
        retry would respawn shard processes behind their back."""
        backend = ShardedSocketBackend(max_workers=1, on_failure="rebalance")
        sim = make_tiny_simulation()
        _slow_first_batch(backend, sim)
        outcome = {}

        def run_batch():
            try:
                outcome["result"] = sim.train_and_aggregate([0])
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run_batch)
        thread.start()
        time.sleep(0.4)  # let the batch reach the shard
        backend.close()
        thread.join(timeout=60)
        assert not thread.is_alive(), "in-flight batch hung after close()"
        if "error" in outcome:
            assert isinstance(outcome["error"],
                              (ShardError, RuntimeError))
        else:  # pragma: no cover - timing-dependent fast path
            assert [summary.index for summary in outcome["result"]] == [0]
        backend.close()
        # The key assertion: nothing was resurrected after close().
        _assert_no_orphans(backend)

    def test_close_during_inflight_batch_does_not_hang(self):
        """close() while another thread waits on a batch must leave the
        waiter with a loud error (or a completed result, if it won the
        race) — never a hang — and the backend orphan-free."""
        backend = ShardedSocketBackend(max_workers=1)
        sim = make_tiny_simulation()
        _slow_first_batch(backend, sim)
        outcome = {}

        def run_batch():
            try:
                outcome["result"] = sim.train_and_aggregate([0])
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run_batch)
        thread.start()
        time.sleep(0.4)  # let the batch reach the shard
        backend.close()
        thread.join(timeout=30)
        assert not thread.is_alive(), "in-flight batch hung after close()"
        if "error" in outcome:
            assert isinstance(outcome["error"],
                              (ShardError, RuntimeError))
        else:
            assert [summary.index for summary in outcome["result"]] == [0]
        backend.close()
        _assert_no_orphans(backend)


class TestWireCodec:
    """End-to-end behavior of the wire codec on sockets."""

    def test_warm_cycle_ships_one_snapshot_per_shard(self):
        """Cycle 1 ships specs on top of the weights; a warm cycle ships
        masks, RNG digests and one raw weights snapshot per shard."""
        sim = make_tiny_simulation()
        backend = sim.set_backend("sharded", max_workers=2)
        weights = sim.server.get_global_weights()
        try:
            sim.train_and_aggregate(sim.client_indices())
            cold = backend.last_dispatch_bytes
            sim.train_and_aggregate(sim.client_indices())
            warm = backend.last_dispatch_bytes
        finally:
            sim.close()
        raw = sum(array.nbytes for array in weights.values())
        assert backend.num_slots * raw <= warm < cold

    def test_shard_killed_mid_run_retries_bit_identical(self):
        """Satellite regression: a shard killed after its residents are
        warm comes back empty, gets its specs re-shipped, and the
        retried run stays bit-identical."""
        serial = make_tiny_simulation()
        reference = serial.run(SynchronousFLStrategy(straggler_top_k=1),
                               num_cycles=4)

        sim = make_tiny_simulation()
        backend = ShardedSocketBackend(max_workers=2, on_failure="rebalance")
        sim.set_backend(backend)
        # Cycle 3 killed: by then every slot's residents are built.
        strategy = _ShardKillingSync(backend, kill_before_cycle=3)
        try:
            history = sim.run(strategy, num_cycles=4)
            assert strategy.killed
            assert history.accuracies() == reference.accuracies()
            assert history.times_s() == reference.times_s()
            for expected, actual in zip(
                    serial.server.get_global_weights().values(),
                    sim.server.get_global_weights().values()):
                np.testing.assert_array_equal(expected, actual)
        finally:
            sim.close()


def _minor_faults(pid):
    """Field 10 of ``/proc/<pid>/stat``: the process's minor faults."""
    with open(f"/proc/{pid}/stat") as stat:
        # The command name (field 2) may hold spaces; it ends at the
        # last ')', after which field 3 is the first.
        return int(stat.read().rsplit(")", 1)[1].split()[7])


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc/<pid>/stat")
class TestSteadyStateFaults:
    """A warm slot's batch reuses the heap of the batch before it.

    A spawned ``repro shard-worker`` used to hand the top of its heap
    back to the kernel after every batch and fault it in again (430-470
    minor faults a batch on this fleet, ~2 200 on ``fleet32``); its
    allocator policy (``cli._keep_heap``) keeps it.  A forked
    ``persistent`` slot inherits its parent's warm heap and is the
    guard: both stay under one bound.
    """

    #: Minor faults a warm batch may take, per slot.
    MAX_FAULTS_PER_BATCH = 64
    WARM_CYCLES = 3
    MEASURED_CYCLES = 10

    @pytest.mark.parametrize("backend_name", ["sharded", "persistent"])
    def test_warm_batches_do_not_fault_pages_back_in(self, backend_name):
        factory, _ = make_simulation_factory(
            ExperimentSetting("mnist", "mlp", num_capable=2,
                              num_stragglers=2, seed=0),
            SCALES["fast"])
        serial = factory()
        strategy = SynchronousFLStrategy(straggler_top_k=2)
        serial.run(strategy, num_cycles=self.WARM_CYCLES)
        serial.run(strategy, num_cycles=self.MEASURED_CYCLES)

        sim = factory()
        strategy = SynchronousFLStrategy(straggler_top_k=2)
        backend = sim.set_backend(backend_name, max_workers=1)
        try:
            sim.run(strategy, num_cycles=self.WARM_CYCLES)
            (proc,) = backend._procs.values()
            before = _minor_faults(proc.pid)
            sim.run(strategy, num_cycles=self.MEASURED_CYCLES)
            per_batch = (_minor_faults(proc.pid) - before) \
                / self.MEASURED_CYCLES
            weights = sim.server.get_global_weights()
        finally:
            sim.close()
        assert per_batch <= self.MAX_FAULTS_PER_BATCH
        for name, expected in serial.server.get_global_weights().items():
            assert expected.tobytes() == weights[name].tobytes()
