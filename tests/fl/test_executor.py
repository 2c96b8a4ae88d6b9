"""Tests for the execution-backend subsystem (:mod:`repro.fl.executor`).

The contract under test: every backend returns summaries in job order,
the resident backends reproduce the serial backend bit-for-bit under a
fixed seed, and a crashed worker surfaces its exception to the caller.
Raw trained updates are read through one-job folds
(:func:`tests.conftest.train_clients`).
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.baselines import SynchronousFLStrategy
from repro.core import HeliosConfig, HeliosStrategy
from repro.experiments.common import (SCALES, ExperimentSetting,
                                      make_simulation_factory)
from repro.fl import (ExecutionBackend, FLClient, SerialBackend, ShardError,
                      ShardedSocketBackend, TrainingJob, available_backends,
                      finalize_partials, make_backend)

from ..conftest import (FAST_DEVICE, make_tiny_model, make_tiny_simulation,
                        train_clients)

BACKENDS = ("serial", "persistent", "sharded")
#: Backends keeping worker-resident client replicas (spec shipped once).
RESIDENT_BACKENDS = ("persistent", "sharded")


def _run_collaboration(backend_name, strategy_factory, num_cycles=3):
    """History + final global weights of one tiny collaboration."""
    sim = make_tiny_simulation()
    sim.set_backend(backend_name, max_workers=2)
    try:
        history = sim.run(strategy_factory(), num_cycles=num_cycles)
        weights = sim.server.get_global_weights()
    finally:
        sim.backend.close()
    return history, weights


class TestBackendFactory:
    def test_available_backends(self):
        assert available_backends() == ("persistent", "serial", "sharded")

    def test_none_means_serial(self):
        assert isinstance(make_backend(None), SerialBackend)

    @pytest.mark.parametrize("name,cls", [
        ("serial", SerialBackend),
        ("persistent", ShardedSocketBackend),
        ("sharded", ShardedSocketBackend),
    ])
    def test_by_name(self, name, cls):
        backend = make_backend(name)
        assert isinstance(backend, cls)
        assert backend.name == name
        backend.close()

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_instance_with_max_workers_rejected(self):
        """max_workers cannot retrofit an already-built pool instance."""
        backend = make_backend("persistent", max_workers=2)
        try:
            with pytest.raises(ValueError, match="max_workers"):
                make_backend(backend, max_workers=4)
        finally:
            backend.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend("gpu-cluster")

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_removed_backends_are_unknown_names(self, name):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend(name)
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend(name, max_workers=2)

    def test_bad_spec_type_rejected(self):
        with pytest.raises(TypeError):
            make_backend(42)

    @pytest.mark.parametrize("name", RESIDENT_BACKENDS)
    def test_invalid_worker_count_rejected(self, name):
        with pytest.raises(ValueError):
            make_backend(name, max_workers=0)

    def test_forked_slots_take_no_shard_addresses(self):
        with pytest.raises(ValueError, match="only applies to the 'sharded' "
                                             "backend, not 'persistent'"):
            ShardedSocketBackend(shards=["localhost:1"], name="persistent")

    def test_sharded_rejects_empty_and_malformed_addresses(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedSocketBackend(shards=[])
        with pytest.raises(ValueError, match="host:port"):
            ShardedSocketBackend(shards=["nonsense"])
        with pytest.raises(ValueError, match="non-integer"):
            ShardedSocketBackend(shards=["localhost:http"])

    def test_sharded_rejects_addresses_plus_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ShardedSocketBackend(shards=["localhost:1"], max_workers=2)

    def test_shards_only_apply_to_sharded_backend(self):
        with pytest.raises(ValueError, match="only applies"):
            make_backend("persistent", shards="localhost:1")
        backend = SerialBackend()
        with pytest.raises(ValueError, match="already-constructed"):
            make_backend(backend, shards="localhost:1")

    def test_default_spec_with_max_workers_rejected(self):
        """Regression: make_backend(None, max_workers=4) silently built a
        SerialBackend and dropped the worker count."""
        with pytest.raises(ValueError, match="max_workers"):
            make_backend(None, max_workers=4)

    def test_failure_policy_constructed(self):
        for name in ("sharded", "persistent"):
            backend = make_backend(name, on_shard_failure="rebalance")
            assert backend.on_failure == "rebalance"
            backend.close()
        default = make_backend("sharded")
        assert default.on_failure == "abort"
        default.close()

    def test_unknown_failure_policy_rejected(self):
        with pytest.raises(ValueError, match="failure policy"):
            make_backend("sharded", on_shard_failure="retry-forever")
        with pytest.raises(ValueError, match="failure policy"):
            make_backend("persistent", on_shard_failure="retry-forever")

    def test_failure_policy_only_for_resident_backends(self):
        for spec in (None, "serial"):
            with pytest.raises(ValueError, match="worker-resident"):
                make_backend(spec, on_shard_failure="rebalance")
        backend = SerialBackend()
        with pytest.raises(ValueError, match="already-constructed"):
            make_backend(backend, on_shard_failure="rebalance")

    def test_persistent_context_manager_closes(self):
        with make_backend("persistent", max_workers=1) as backend:
            assert backend.check_health() == []
            assert backend._procs
        assert not backend._procs


class TestOrdering:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_updates_come_back_in_job_order(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        try:
            summaries = sim.train_and_aggregate([2, 0, 1])
        finally:
            sim.backend.close()
        assert [summary.client_id for summary in summaries] == [2, 0, 1]
        assert [summary.index for summary in summaries] == [2, 0, 1]

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_duplicate_client_jobs_match_serial(self, backend_name):
        """Jobs of one client chain sequentially (RNG order preserved):
        one batch folds to the same bits as serial, and each job's
        summary carries the same loss."""
        def double_train(name):
            sim = make_tiny_simulation()
            sim.set_backend(name, max_workers=2)
            weights = sim.server.get_global_weights()
            jobs = [TrainingJob(index=0, weights=weights),
                    TrainingJob(index=0, weights=weights),
                    TrainingJob(index=1, weights=weights)]
            try:
                partials, summaries = sim.backend.run_fold(
                    sim.clients, jobs, [0.25, 0.25, 0.5])
            finally:
                sim.backend.close()
            return finalize_partials(None, partials), summaries

        serial_weights, serial = double_train("serial")
        weights, concurrent = double_train(backend_name)
        assert ([summary.train_loss for summary in serial]
                == [summary.train_loss for summary in concurrent])
        for key in serial_weights:
            np.testing.assert_array_equal(serial_weights[key], weights[key])

    def test_unknown_index_fails_fast(self, tiny_simulation):
        with pytest.raises(IndexError):
            tiny_simulation.train_and_aggregate([0, 99])

    def test_empty_batch_is_noop(self, tiny_simulation):
        assert tiny_simulation.backend.run_fold(
            tiny_simulation.clients, [], []) == ([], [])


class TestEquivalence:
    """Resident-backend histories are bit-identical to serial ones."""

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_sync_fl_history_bit_identical(self, backend_name):
        reference_history, reference_weights = _run_collaboration(
            "serial", lambda: SynchronousFLStrategy(straggler_top_k=1))
        history, weights = _run_collaboration(
            backend_name, lambda: SynchronousFLStrategy(straggler_top_k=1))
        assert history.accuracies() == reference_history.accuracies()
        assert history.times_s() == reference_history.times_s()
        assert ([record.mean_train_loss for record in history.records]
                == [record.mean_train_loss
                    for record in reference_history.records])
        for key in reference_weights:
            np.testing.assert_array_equal(weights[key],
                                          reference_weights[key])

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_helios_history_bit_identical(self, backend_name):
        """Masked soft-training (RNG-heavy path) is backend-invariant."""
        factory = lambda: HeliosStrategy(HeliosConfig(straggler_top_k=1))
        reference_history, reference_weights = _run_collaboration(
            "serial", factory)
        history, weights = _run_collaboration(backend_name, factory)
        assert history.accuracies() == reference_history.accuracies()
        for key in reference_weights:
            np.testing.assert_array_equal(weights[key],
                                          reference_weights[key])

    def test_conv_model_bit_identical_on_every_backend(self):
        """LeNet under Helios: conv outputs are non-contiguous views and
        the layers keep per-call buffers — neither may leak across the
        process boundary (weights must travel C-contiguous)."""
        factory, _ = make_simulation_factory(
            ExperimentSetting("mnist", "lenet", num_capable=2,
                              num_stragglers=2, seed=3), SCALES["smoke"])

        def run(backend_name):
            with factory() as sim:
                sim.set_backend(backend_name,
                                max_workers=(None if backend_name == "serial"
                                             else 2))
                history = sim.run(
                    HeliosStrategy(HeliosConfig(straggler_top_k=2, seed=3)),
                    num_cycles=2)
                weights = sim.server.get_global_weights()
            assert all(value.flags.c_contiguous for value in weights.values())
            digest = hashlib.sha256()
            for name in sorted(weights):
                digest.update(name.encode())
                digest.update(weights[name].tobytes())
            return (history.accuracies(), history.times_s(),
                    [record.mean_train_loss for record in history.records],
                    digest.hexdigest())

        reference = run("serial")
        assert len(reference[0]) == 2
        for backend_name in RESIDENT_BACKENDS:
            assert run(backend_name) == reference, backend_name

    def test_client_state_advances_identically(self):
        """Post-batch client RNG/model state matches a serial run."""
        def state_after_two_batches(backend_name):
            sim = make_tiny_simulation()
            sim.set_backend(backend_name, max_workers=2)
            try:
                train_clients(sim, sim.client_indices())
                updates = train_clients(sim, sim.client_indices())
            finally:
                sim.backend.close()
            rng_states = [client.rng.bit_generator.state["state"]
                          for client in sim.clients]
            return updates, rng_states

        serial_updates, serial_rng = state_after_two_batches("serial")
        for backend_name in RESIDENT_BACKENDS:
            updates, rng_states = state_after_two_batches(backend_name)
            assert rng_states == serial_rng
            for expected, actual in zip(serial_updates, updates):
                assert expected.train_loss == actual.train_loss


class TestFailurePaths:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_crashed_worker_surfaces_exception(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        jobs = [TrainingJob(index=0, weights=sim.server.get_global_weights(),
                            local_epochs=0)]  # invalid: crashes the worker
        try:
            with pytest.raises(ValueError, match="local_epochs"):
                sim.backend.run_fold(sim.clients, jobs, [1.0])
        finally:
            sim.backend.close()

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_partial_batch_failure_fails_whole_batch(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        weights = sim.server.get_global_weights()
        jobs = [TrainingJob(index=0, weights=weights),
                TrainingJob(index=1, weights=weights, local_epochs=0),
                TrainingJob(index=2, weights=weights)]
        try:
            with pytest.raises(ValueError):
                sim.backend.run_fold(sim.clients, jobs, [1 / 3] * 3)
        finally:
            sim.backend.close()

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_first_failing_client_wins_in_first_submission_order(
            self, backend_name):
        """Client 0's jobs chain in one group that fails at its second
        job; client 1's only job, submitted between them, fails too.
        Client 0 was submitted first, so its error is the one raised."""
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        weights = sim.server.get_global_weights()
        jobs = [TrainingJob(index=0, weights=weights),
                TrainingJob(index=1, weights=weights, local_epochs=0),
                TrainingJob(index=0, weights={})]
        try:
            with pytest.raises(KeyError, match="missing weights"):
                sim.backend.run_fold(sim.clients, jobs, [1 / 3] * 3)
        finally:
            sim.backend.close()

    def test_serial_raises_what_local_train_raised(self):
        """Not the picklable stand-in a slot's reply carries: the very
        exception object."""
        class Unshippable(Exception):
            pass

        raised = Unshippable("local class: pickles by no name")

        class Raising(FLClient):
            def local_train(self, *args, **kwargs):
                raise raised

        client = make_tiny_simulation().clients[0]
        clients = [Raising(client_id=0, dataset=client.dataset,
                           device=client.device,
                           model_factory=make_tiny_model,
                           config=client.config)]
        with pytest.raises(Unshippable) as excinfo:
            SerialBackend().run_jobs(clients, [TrainingJob(
                index=0, weights=make_tiny_model().get_weights())])
        assert excinfo.value is raised


class TestSimulationBackendSelection:
    def test_default_backend_is_serial(self, tiny_simulation):
        assert isinstance(tiny_simulation.backend, SerialBackend)

    def test_backend_by_name_at_construction(self):
        from repro.fl import FederatedSimulation
        base = make_tiny_simulation()
        sim = FederatedSimulation(base.clients, base.server, (1, 8, 8),
                                  backend="persistent")
        try:
            assert sim.backend.name == "persistent"
        finally:
            sim.backend.close()

    def test_set_backend_closes_previous(self):
        sim = make_tiny_simulation()
        first = sim.set_backend("persistent", max_workers=1)
        first.check_health()  # force worker creation
        second = sim.set_backend("serial")
        assert not first._procs  # closed by the swap
        assert isinstance(second, SerialBackend)
        assert sim.backend is second

    def test_set_backend_same_name_twice_closes_old_pool(self):
        """A same-name swap builds a fresh pool and shuts the old one."""
        sim = make_tiny_simulation()
        first = sim.set_backend("persistent", max_workers=1)
        first.check_health()  # force worker creation
        second = sim.set_backend("persistent", max_workers=1)
        try:
            assert second is not first
            assert not first._procs  # old pool closed, not leaked
            assert sim.backend is second
        finally:
            sim.close()

    def test_set_backend_same_instance_is_noop(self):
        sim = make_tiny_simulation()
        backend = sim.set_backend("persistent", max_workers=1)
        backend.check_health()
        try:
            assert sim.set_backend(backend) is backend
            assert backend._procs  # untouched
        finally:
            sim.close()

    def test_simulation_close_and_context_manager(self):
        with make_tiny_simulation() as sim:
            backend = sim.set_backend("persistent", max_workers=1)
            backend.check_health()
        assert not backend._procs  # closed on context exit
        sim.close()  # idempotent

    def test_set_backend_migrates_mid_collaboration(self):
        """serial → persistent mid-run is bit-identical to all-serial."""
        reference = make_tiny_simulation()
        train_clients(reference, reference.client_indices())
        reference_updates = train_clients(reference,
                                          reference.client_indices())

        sim = make_tiny_simulation()
        train_clients(sim, sim.client_indices())  # first batch on serial
        sim.set_backend("persistent", max_workers=2)
        try:
            updates = train_clients(sim, sim.client_indices())
        finally:
            sim.close()
        for expected, actual in zip(reference_updates, updates):
            assert expected.train_loss == actual.train_loss
            for key in expected.weights:
                np.testing.assert_array_equal(expected.weights[key],
                                              actual.weights[key])


class TestBackendLifecycle:
    """Lazy pool creation, close idempotency, and re-use after close."""

    def test_persistent_workers_spawn_lazily(self):
        backend = make_backend("persistent", max_workers=2)
        assert not backend._procs
        try:
            backend.check_health()
            assert len(backend._procs) == 2  # the probe brings slots up
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_close_is_idempotent(self, backend_name):
        backend = make_backend(backend_name, max_workers=1)
        if backend_name != "serial":
            backend.check_health()
        backend.close()
        backend.close()

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_close_before_any_use(self, backend_name):
        """close() on a never-used backend is a safe no-op."""
        backend = make_backend(backend_name, max_workers=1)
        backend.close()
        backend.close()

    def test_persistent_close_after_worker_death(self):
        """Regression: closing a pool whose worker was killed must not
        raise (close-after-worker-death used to be untested)."""
        backend = make_backend("persistent", max_workers=1)
        try:
            backend.check_health()
            proc = backend._procs[0]
            proc.kill()
            proc.wait()
        finally:
            backend.close()
        backend.close()
        assert not backend._procs

    def test_persistent_worker_death_aborts_batch_by_default(self):
        """Default policy is the historical one: a dead worker fails the
        batch with a slot-identified error and shuts the pool down."""
        sim = make_tiny_simulation()
        backend = sim.set_backend("persistent", max_workers=2)
        try:
            train_clients(sim, sim.client_indices())
            proc = backend._procs[0]
            proc.kill()
            proc.wait()
            with pytest.raises(ShardError) as excinfo:
                train_clients(sim, sim.client_indices())
            assert excinfo.value.slot == 0
            assert not backend._procs
        finally:
            sim.close()

    def test_persistent_worker_death_rebalance_bit_identical(self):
        """Under on_failure='rebalance' a killed forked slot respawns
        and the retried batch matches an undisturbed serial run."""
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim, serial_sim.client_indices())

        sim = make_tiny_simulation()
        backend = sim.set_backend("persistent", max_workers=2,
                                  on_shard_failure="rebalance")
        try:
            train_clients(sim, sim.client_indices())
            proc = backend._procs[0]
            proc.kill()
            proc.wait()
            second = train_clients(sim, sim.client_indices())
            # The pool healed: fresh workers, residents rebuilt.
            assert backend._procs[0] is not proc
            assert all(slot.poll() is None
                       for slot in backend._procs.values())
        finally:
            sim.close()
        for expected, actual in zip(serial_second, second):
            assert expected.train_loss == actual.train_loss
            for key in expected.weights:
                np.testing.assert_array_equal(expected.weights[key],
                                              actual.weights[key])

    def test_concurrent_close_from_two_threads(self):
        """Regression: close() racing close() (teardown at interpreter
        exit racing an explicit close, two owners) must not raise."""
        import threading

        backend = make_backend("persistent", max_workers=2)
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
        assert not backend._procs

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_reuse_after_close_respawns_pool(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        try:
            first = train_clients(sim, [0, 1, 2])
            sim.backend.close()
            # The pool is gone; the next batch must lazily rebuild it
            # (for the persistent backend: re-ship specs + RNG digests).
            second = train_clients(sim, [0, 1, 2])
        finally:
            sim.close()
        assert [update.client_id for update in second] == [0, 1, 2]
        assert all(np.isfinite(update.train_loss) for update in second)
        # The reused pool continues each client's RNG stream where the
        # first batch left it — bit-identical to an uninterrupted serial
        # run of two batches.
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, [0, 1, 2])
        serial_second = train_clients(serial_sim, [0, 1, 2])
        for expected, actual in zip(serial_second, second):
            assert expected.train_loss == actual.train_loss


def _exited(pid):
    """Whether ``pid`` is gone or a zombie (exited, not yet reaped)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _wait_exited(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(_exited(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


_PARENT_WITH_TWO_SLOTS = """
import sys, time
from repro.fl import make_backend

backend = make_backend("persistent", max_workers=2)
backend.check_health()
print(*(proc.pid for proc in backend._procs.values()), flush=True)
time.sleep(600)
"""


class TestForkedSlots:
    """A ``persistent`` slot is a forked shard server on a socketpair:
    it answers the same probes as a TCP shard, and no child outlives the
    channel its parent holds."""

    def test_persistent_answers_health_probes_and_respawns(self):
        serial_sim = make_tiny_simulation()
        train_clients(serial_sim, serial_sim.client_indices())
        serial_second = train_clients(serial_sim, serial_sim.client_indices())

        sim = make_tiny_simulation()
        backend = sim.set_backend("persistent", max_workers=2,
                                  on_shard_failure="rebalance")
        try:
            train_clients(sim, sim.client_indices())
            assert backend.check_health() == []
            victim = backend._procs[0]
            victim.kill()
            victim.wait(timeout=10)
            # The pre-batch check finds the corpse, the slot respawns and
            # the batch matches serial.
            second = train_clients(sim, sim.client_indices())
            assert backend._procs[0] is not victim
            assert backend.check_health() == []
        finally:
            sim.close()
        for expected, actual in zip(serial_second, second):
            assert expected.train_loss == actual.train_loss

    def test_discarded_slot_sees_eof_at_once(self):
        """Slot 1 was forked after slot 0; unless it closed the copy of
        slot 0's channel it inherited, slot 0's child would never see
        its parent hang up."""
        backend = make_backend("persistent", max_workers=2)
        try:
            backend.check_health()
            child = backend._procs[0]
            backend._discard_slot_transport(0)
            deadline = time.monotonic() + 10
            while child.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert child.returncode == 0  # exited on EOF, not killed
        finally:
            backend.close()

    def test_killed_parent_leaves_no_orphans(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        parent = subprocess.Popen([sys.executable, "-c",
                                   _PARENT_WITH_TWO_SLOTS],
                                  stdout=subprocess.PIPE, env=env, text=True)
        try:
            children = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(children) == 2
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
        assert _wait_exited(children), "a forked slot outlived its parent"

    def test_respawned_slot_leaves_no_zombie(self):
        sim = make_tiny_simulation()
        backend = sim.set_backend("persistent", max_workers=2,
                                  on_shard_failure="rebalance")
        try:
            train_clients(sim, sim.client_indices())
            pid = backend._procs[0].pid
            os.kill(pid, signal.SIGKILL)  # dies behind the handle's back
            train_clients(sim, sim.client_indices())
            assert backend._procs[0].pid != pid
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # already reaped
        finally:
            sim.close()


class TestPersistentResidency:
    """Sticky placement, one-time spec shipping, and invalidation.

    Parametrized over both worker-resident backend names wherever the
    contract does not depend on the name.
    """

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_sticky_placement_across_batches(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        try:
            train_clients(sim, sim.client_indices())
            placement_first = dict(sim.backend._placement)
            train_clients(sim, sim.client_indices())
            assert sim.backend._placement == placement_first
            assert set(placement_first.values()) <= {0, 1}
        finally:
            sim.close()

    def test_spec_shipped_once_then_payload_shrinks(self):
        sim = make_tiny_simulation()
        sim.set_backend("persistent", max_workers=2)
        weights = sim.server.get_global_weights()
        jobs = [TrainingJob(index=index, weights=weights)
                for index in sim.client_indices()]
        try:
            cold = sim.backend.dispatch_payload_bytes(
                sim.clients, jobs, sim.server.structure)
            sim.train_and_aggregate(sim.client_indices())
            warm = sim.backend.dispatch_payload_bytes(
                sim.clients, jobs, sim.server.structure)
            assert warm < cold  # specs (datasets!) no longer travel
            assert sim.backend.last_dispatch_bytes == cold
            sim.train_and_aggregate(sim.client_indices())
            assert sim.backend.last_dispatch_bytes == warm
        finally:
            sim.close()

    def test_warm_payload_independent_of_dataset_size(self):
        """The headline property: dispatch is O(weights), not O(dataset)
        — one raw snapshot per slot every cycle, specs only in cycle 1."""
        def dispatched(samples_per_client):
            sim = make_tiny_simulation(samples_per_client=samples_per_client)
            backend = sim.set_backend("persistent", max_workers=2)
            weights = sim.server.get_global_weights()
            try:
                sim.train_and_aggregate(sim.client_indices())
                cold = backend.last_dispatch_bytes
                sim.train_and_aggregate(sim.client_indices())
                warm = backend.last_dispatch_bytes
            finally:
                sim.close()
            raw = sum(array.nbytes for array in weights.values())
            return warm, cold, backend.num_slots * raw

        small_warm, small_cold, floor = dispatched(20)
        large_warm, large_cold, _ = dispatched(200)
        # Warm dispatch does not grow with the dataset (the RNG digests'
        # integer values pickle to ±a few bytes) and never drops below
        # the weights themselves …
        assert abs(large_warm - small_warm) <= 0.01 * small_warm
        assert floor <= small_warm and floor <= large_warm
        # … while the cold dispatch, which ships the specs (datasets
        # included), does, and is strictly larger.
        assert large_cold > small_cold
        assert small_warm < small_cold
        assert large_warm < large_cold

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_invalidate_client_reships_spec(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        weights = sim.server.get_global_weights()
        jobs = [TrainingJob(index=index, weights=weights)
                for index in sim.client_indices()]
        try:
            sim.train_and_aggregate(sim.client_indices())
            warm = sim.backend.dispatch_payload_bytes(
                sim.clients, jobs, sim.server.structure)
            sim.invalidate_cost_caches(0)  # lifecycle event → backend hook
            invalidated = sim.backend.dispatch_payload_bytes(
                sim.clients, jobs, sim.server.structure)
            assert invalidated > warm  # client 0's spec travels again
            sim.train_and_aggregate(sim.client_indices())  # still trains
        finally:
            sim.close()

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_device_mutation_routed_through_backend(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        try:
            train_clients(sim, sim.client_indices())
            assert 2 in sim.backend._resident
            new_device = FAST_DEVICE.scaled(name="upgraded-straggler")
            sim.set_client_device(2, new_device)
            assert 2 not in sim.backend._resident
            assert sim.client(2).device.name == "upgraded-straggler"
            assert sim.client(2).spec.device.name == "upgraded-straggler"
            updates = train_clients(sim, sim.client_indices())
            assert updates[2].client_name == "upgraded-straggler"
        finally:
            sim.close()

    @pytest.mark.parametrize("mutate", ["dataset", "config"])
    def test_identity_mutation_reships_spec_automatically(self, mutate):
        """dataset/config setters bump the spec version: the resident
        replica is rebuilt even without an explicit invalidation, so the
        persistent run stays bit-identical to a serial one."""
        from repro.fl import ClientConfig
        from ..conftest import make_tiny_dataset

        def run(backend_name):
            sim = make_tiny_simulation()
            if backend_name != "serial":
                sim.set_backend(backend_name, max_workers=2)
            try:
                train_clients(sim, sim.client_indices())
                if mutate == "dataset":
                    sim.client(1).dataset = make_tiny_dataset(24, seed=11)
                else:
                    sim.client(1).config = ClientConfig(batch_size=20,
                                                        local_epochs=2,
                                                        learning_rate=0.1)
                return train_clients(sim, sim.client_indices())
            finally:
                sim.close()

        serial_updates = run("serial")
        persistent_updates = run("persistent")
        for expected, actual in zip(serial_updates, persistent_updates):
            assert expected.num_samples == actual.num_samples
            assert expected.local_epochs == actual.local_epochs
            assert expected.train_loss == actual.train_loss
            for key in expected.weights:
                np.testing.assert_array_equal(expected.weights[key],
                                              actual.weights[key])

    def test_add_client_trains_on_persistent_backend(self):
        from repro.fl import ClientConfig, FLClient
        from ..conftest import make_tiny_dataset
        sim = make_tiny_simulation()
        sim.set_backend("persistent", max_workers=2)
        try:
            train_clients(sim, sim.client_indices())
            joiner = FLClient(client_id=3,
                              dataset=make_tiny_dataset(40, seed=5),
                              device=FAST_DEVICE.scaled(name="joiner"),
                              model_factory=make_tiny_model,
                              config=ClientConfig(batch_size=20))
            index = sim.add_client(joiner)
            updates = train_clients(sim, sim.client_indices())
            assert updates[index].client_name == "joiner"
        finally:
            sim.close()

    def test_shared_backend_across_simulations_reships_specs(self):
        """Adopting a backend used by another fleet must not reuse its
        worker-resident replicas."""
        backend = make_backend("persistent", max_workers=2)
        try:
            first = make_tiny_simulation()
            first.set_backend(backend)
            train_clients(first, first.client_indices())

            reference = make_tiny_simulation(seed=3)
            reference_updates = train_clients(reference,
                                              reference.client_indices())

            second = make_tiny_simulation(seed=3)
            second.set_backend(backend)
            updates = train_clients(second, second.client_indices())
            for expected, actual in zip(reference_updates, updates):
                assert expected.train_loss == actual.train_loss
                for key in expected.weights:
                    np.testing.assert_array_equal(expected.weights[key],
                                                  actual.weights[key])
        finally:
            backend.close()


class TestWireCodec:
    """The wire codec on the resident backends."""

    def test_wire_compression_keyword_is_gone(self):
        with pytest.raises(TypeError, match="wire_compression"):
            make_backend("persistent", wire_compression="zlib")

    def test_oversized_batch_error_names_kind_and_breakdown(self,
                                                            monkeypatch):
        """Regression: a batch exceeding the frame limit fails
        with the shard identity, and the underlying FrameTooLargeError
        names the message kind and the weights-vs-skeleton breakdown."""
        from repro.fl import ShardError
        from repro.fl import executor
        from repro.fl.transport import FrameTooLargeError

        monkeypatch.setattr(executor, "DEFAULT_MAX_FRAME_BYTES", 4096)
        sim = make_tiny_simulation()
        backend = ShardedSocketBackend(max_workers=1)
        sim.set_backend(backend)
        try:
            with pytest.raises(ShardError) as excinfo:
                sim.train_and_aggregate(sim.client_indices())
            cause = excinfo.value.__cause__
            assert isinstance(cause, FrameTooLargeError)
            message = str(cause)
            assert "'fold'" in message
            assert "skeleton" in message
            assert "ndarray payload" in message
        finally:
            sim.close()

    def test_reply_weight_arrays_are_writable(self):
        """Regression: zero-copy decoded reply arrays must be writable
        (parity with the serial backend's own arrays)."""
        sim = make_tiny_simulation()
        sim.set_backend("persistent", max_workers=2)
        weights = sim.server.get_global_weights()
        try:
            partials, _ = sim.backend.run_fold(
                sim.clients, [TrainingJob(index=index, weights=weights)
                              for index in sim.client_indices()],
                [1 / 3] * 3)
        finally:
            sim.close()
        assert len(partials) == 2
        for partial in partials:
            for table in (partial.weighted_sums, partial.weight_tables):
                for value in table.values():
                    assert value.flags.writeable
                    value[...] = value  # in-place write must not raise
