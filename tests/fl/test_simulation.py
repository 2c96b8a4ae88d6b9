"""Tests for the federated simulation engine."""

import numpy as np
import pytest

from repro.fl import CycleOutcome, FederatedStrategy, TrainingJob
from repro.nn import ModelMask

from ..conftest import make_tiny_simulation, train_clients


class RecordingStrategy(FederatedStrategy):
    """Minimal strategy: everyone trains fully, FedAvg, fixed duration."""

    name = "recording"

    def __init__(self, duration=2.0):
        self.duration = duration
        self.setup_called = False
        self.cycles_run = []

    def setup(self, sim):
        self.setup_called = True

    def execute_cycle(self, cycle, sim):
        self.cycles_run.append(cycle)
        summaries = sim.train_and_aggregate(sim.client_indices(),
                                            partial=False)
        return CycleOutcome(duration_s=self.duration,
                            participating_clients=len(summaries),
                            mean_train_loss=float(np.mean(
                                [summary.train_loss
                                 for summary in summaries])))


class TestTimingServices:
    def test_straggler_cycle_is_longer(self, tiny_simulation):
        fast = tiny_simulation.client_cycle_seconds(0)
        slow = tiny_simulation.client_cycle_seconds(2)
        assert slow > fast

    def test_mask_reduces_cycle_time(self, tiny_simulation):
        model = tiny_simulation.server.global_model
        mask = ModelMask.random(model, {"fc1": 0.25, "fc2": 0.25,
                                        "output": 0.25},
                                np.random.default_rng(0))
        full = tiny_simulation.client_cycle_seconds(2)
        shrunk = tiny_simulation.client_cycle_seconds(2, mask=mask)
        assert shrunk < full

    def test_more_epochs_take_longer(self, tiny_simulation):
        one = tiny_simulation.client_cycle_seconds(2, local_epochs=1)
        three = tiny_simulation.client_cycle_seconds(2, local_epochs=3)
        assert three > one

    def test_communication_toggle(self, tiny_simulation):
        with_comm = tiny_simulation.client_cycle_seconds(0)
        without = tiny_simulation.client_cycle_seconds(
            0, include_communication=False)
        assert with_comm > without

    def test_slowest_and_fastest_cycles(self, tiny_simulation):
        assert (tiny_simulation.slowest_full_cycle_seconds()
                > tiny_simulation.fastest_full_cycle_seconds())

    def test_workload_scale_scales_time(self):
        small = make_tiny_simulation()
        large = make_tiny_simulation()
        large.workload_scale = small.workload_scale * 10
        assert (large.client_cycle_seconds(2, include_communication=False)
                > small.client_cycle_seconds(2, include_communication=False))

    def test_invalid_workload_scale(self):
        with pytest.raises(ValueError):
            sim = make_tiny_simulation()
            from repro.fl import FederatedSimulation
            FederatedSimulation(sim.clients, sim.server, (1, 8, 8),
                                workload_scale=0.0)


class TestNumericalServices:
    def test_train_client_defaults_to_global_weights(self, tiny_simulation):
        update = train_clients(tiny_simulation, [0])[0]
        assert set(update.weights) == set(
            tiny_simulation.server.get_global_weights())

    def test_evaluate_global_in_range(self, tiny_simulation):
        accuracy = tiny_simulation.evaluate_global()
        assert 0.0 <= accuracy <= 1.0

    def test_add_client_returns_new_index(self, tiny_simulation):
        from repro.fl import FLClient, ClientConfig
        from ..conftest import SLOW_DEVICE, make_tiny_dataset, make_tiny_model
        client = FLClient(client_id=3, dataset=make_tiny_dataset(30, seed=9),
                          device=SLOW_DEVICE, model_factory=make_tiny_model,
                          config=ClientConfig(batch_size=10))
        index = tiny_simulation.add_client(client)
        assert index == 3
        assert tiny_simulation.num_clients() == 4

    def test_set_backend_passes_failure_policy_through(self, tiny_simulation):
        """The fault-tolerance surface reaches the constructed backend."""
        backend = tiny_simulation.set_backend(
            "persistent", max_workers=1, on_shard_failure="rebalance")
        assert backend.on_failure == "rebalance"
        backend = tiny_simulation.set_backend(
            "sharded", max_workers=1, on_shard_failure="degrade")
        assert backend.on_failure == "degrade"
        tiny_simulation.close()

    def test_set_backend_rejects_policy_on_instance(self, tiny_simulation):
        from repro.fl import SerialBackend
        with pytest.raises(ValueError, match="already-constructed"):
            tiny_simulation.set_backend(SerialBackend(),
                                        on_shard_failure="rebalance")


class TestRunLoop:
    def test_runs_requested_cycles(self, tiny_simulation):
        strategy = RecordingStrategy()
        history = tiny_simulation.run(strategy, num_cycles=3)
        assert strategy.setup_called
        assert strategy.cycles_run == [1, 2, 3]
        assert len(history) == 3

    def test_clock_advances_by_durations(self, tiny_simulation):
        history = tiny_simulation.run(RecordingStrategy(duration=5.0),
                                      num_cycles=4)
        np.testing.assert_allclose(history.times_s(), [5.0, 10.0, 15.0, 20.0])

    def test_eval_every_skips_evaluations(self, tiny_simulation):
        history = tiny_simulation.run(RecordingStrategy(), num_cycles=4,
                                      eval_every=2)
        # Cycles 1 and 3 reuse the previous accuracy, 2 and 4 evaluate.
        assert history.accuracies()[0] == 0.0
        assert len(history) == 4

    def test_target_accuracy_stops_early(self, tiny_simulation):
        history = tiny_simulation.run(RecordingStrategy(), num_cycles=50,
                                      target_accuracy=0.01)
        assert len(history) < 50

    def test_accuracy_improves_over_cycles(self, tiny_simulation):
        history = tiny_simulation.run(RecordingStrategy(), num_cycles=6)
        assert history.final_accuracy() > 0.4

    def test_invalid_run_arguments(self, tiny_simulation):
        with pytest.raises(ValueError):
            tiny_simulation.run(RecordingStrategy(), num_cycles=0)
        with pytest.raises(ValueError):
            tiny_simulation.run(RecordingStrategy(), num_cycles=2,
                                eval_every=0)

    def test_history_strategy_name(self, tiny_simulation):
        history = tiny_simulation.run(RecordingStrategy(), num_cycles=1)
        assert history.strategy_name == "recording"


def _dispatched_jobs(sim):
    """Record the jobs every fold batch of ``sim`` dispatches."""
    seen = []
    run_fold = sim.backend.run_fold

    def recording_run_fold(clients, jobs, *args, **kwargs):
        seen.extend(jobs)
        return run_fold(clients, jobs, *args, **kwargs)

    sim.backend.run_fold = recording_run_fold
    return seen


class TestTrainClientsBatch:
    """Batch semantics of :meth:`FederatedSimulation.train_and_aggregate`."""

    def test_batch_matches_serial_single_calls(self):
        """One batch trains what per-client trainings from the same
        snapshot train, and folds to what ``FLServer.aggregate`` makes
        of those updates."""
        batch_sim = make_tiny_simulation()
        loop_sim = make_tiny_simulation()
        summaries = batch_sim.train_and_aggregate(batch_sim.client_indices())
        loop_updates = train_clients(loop_sim, loop_sim.client_indices())
        loop_sim.server.aggregate(loop_updates)
        for summary, looped in zip(summaries, loop_updates):
            assert summary.client_id == looped.client_id
            assert summary.train_loss == looped.train_loss
        expected = loop_sim.server.get_global_weights()
        for name, value in batch_sim.server.get_global_weights().items():
            np.testing.assert_array_equal(value, expected[name])

    def test_result_order_follows_indices(self, tiny_simulation):
        summaries = tiny_simulation.train_and_aggregate([1, 2, 0])
        assert [summary.client_id for summary in summaries] == [1, 2, 0]

    def test_weights_snapshot_taken_once(self, tiny_simulation):
        """All batch members start from the same global snapshot."""
        jobs = _dispatched_jobs(tiny_simulation)
        tiny_simulation.train_and_aggregate([0, 1])
        assert len(jobs) == 2 and jobs[0].weights is jobs[1].weights

    def test_masks_applied_per_client(self, tiny_simulation):
        from repro.nn import ModelMask
        model = tiny_simulation.server.global_model
        mask = ModelMask.random(model, {"fc1": 0.5, "fc2": 0.5,
                                        "output": 0.5},
                                np.random.default_rng(0))
        jobs = _dispatched_jobs(tiny_simulation)
        summaries = tiny_simulation.train_and_aggregate([0, 1],
                                                        masks={1: mask})
        assert jobs[0].mask is None and jobs[1].mask is mask
        assert summaries[0].contributions is None  # Eq. 1: masked only
        assert summaries[1].contributions is not None

    def test_base_cycle_propagates(self, tiny_simulation):
        """Fresh jobs carry ``base_cycle``; a stale job keeps its own
        snapshot and base cycle, after the fresh ones."""
        stale_weights = tiny_simulation.server.get_global_weights()
        jobs = _dispatched_jobs(tiny_simulation)
        tiny_simulation.train_and_aggregate(
            [0], base_cycle=7,
            stale=[TrainingJob(index=2, weights=stale_weights,
                               base_cycle=3)])
        assert [(job.index, job.base_cycle) for job in jobs] == \
            [(0, 7), (2, 3)]
        assert jobs[1].weights is stale_weights

    def test_local_epochs_override(self, tiny_simulation):
        jobs = _dispatched_jobs(tiny_simulation)
        tiny_simulation.train_and_aggregate([0], local_epochs=2)
        assert jobs[0].local_epochs == 2


class TestCostCaching:
    """Cycle-cost estimates are cached and invalidated correctly."""

    def test_repeated_queries_hit_cache(self, tiny_simulation):
        first = tiny_simulation.client_cycle_seconds(0)
        assert tiny_simulation._cycle_cost_cache
        assert tiny_simulation.client_cycle_seconds(0) == first

    def test_equal_volume_masks_share_entry(self, tiny_simulation):
        from repro.nn import ModelMask
        model = tiny_simulation.server.global_model
        fractions = {"fc1": 0.5, "fc2": 0.5, "output": 0.5}
        mask_a = ModelMask.random(model, fractions,
                                  np.random.default_rng(1))
        mask_b = ModelMask.random(model, fractions,
                                  np.random.default_rng(2))
        seconds_a = tiny_simulation.client_cycle_seconds(2, mask=mask_a)
        cache_size = len(tiny_simulation._cycle_cost_cache)
        seconds_b = tiny_simulation.client_cycle_seconds(2, mask=mask_b)
        assert seconds_a == seconds_b
        assert len(tiny_simulation._cycle_cost_cache) == cache_size

    def test_invalidate_all(self, tiny_simulation):
        tiny_simulation.client_cycle_seconds(0)
        tiny_simulation.cost_model_for(0)
        tiny_simulation.invalidate_cost_caches()
        assert not tiny_simulation._cycle_cost_cache
        assert not tiny_simulation._cost_models

    def test_workload_scale_change_after_invalidation(self, tiny_simulation):
        before = tiny_simulation.client_cycle_seconds(
            2, include_communication=False)
        tiny_simulation.workload_scale *= 10
        tiny_simulation.invalidate_cost_caches()
        after = tiny_simulation.client_cycle_seconds(
            2, include_communication=False)
        assert after > before

    def test_add_client_gets_fresh_estimates(self, tiny_simulation):
        from repro.fl import ClientConfig, FLClient
        from ..conftest import FAST_DEVICE, make_tiny_dataset, make_tiny_model
        # Warm every cache, including the index the new client will take.
        for index in tiny_simulation.client_indices():
            tiny_simulation.client_cycle_seconds(index)
        straggler_seconds = tiny_simulation.client_cycle_seconds(2)
        fast_client = FLClient(
            client_id=3, dataset=make_tiny_dataset(40, seed=5),
            device=FAST_DEVICE.scaled(name="joiner"),
            model_factory=make_tiny_model,
            config=ClientConfig(batch_size=20))
        new_index = tiny_simulation.add_client(fast_client)
        new_seconds = tiny_simulation.client_cycle_seconds(new_index)
        # The joiner is a fast device: its estimate must reflect its own
        # profile, not any stale cache entry of the straggler fleet.
        assert new_seconds < straggler_seconds
        assert tiny_simulation.cost_model_for(new_index) is not \
            tiny_simulation.cost_model_for(2)

    def test_add_client_drops_stale_entries_for_reused_index(self):
        """A rejoining index never inherits the previous member's costs."""
        sim = make_tiny_simulation()
        from repro.fl import ClientConfig, FLClient
        from ..conftest import SLOW_DEVICE, make_tiny_dataset, make_tiny_model
        slow_client = FLClient(
            client_id=3, dataset=make_tiny_dataset(40, seed=6),
            device=SLOW_DEVICE.scaled(name="slow-joiner"),
            model_factory=make_tiny_model,
            config=ClientConfig(batch_size=20))
        index = sim.add_client(slow_client)
        slow_seconds = sim.client_cycle_seconds(index)
        # Simulate a fleet-management path that replaces the client list
        # and re-adds a *fast* device at the same index.
        sim.clients.pop()
        fast_client = FLClient(
            client_id=3, dataset=make_tiny_dataset(40, seed=6),
            device=sim.client(0).device,
            model_factory=make_tiny_model,
            config=ClientConfig(batch_size=20))
        assert sim.add_client(fast_client) == index
        assert sim.client_cycle_seconds(index) < slow_seconds


class TestCycleOutcomeValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            CycleOutcome(duration_s=-1.0, participating_clients=1)

    def test_negative_participants_rejected(self):
        with pytest.raises(ValueError):
            CycleOutcome(duration_s=1.0, participating_clients=-1)

    def test_base_strategy_is_abstract(self, tiny_simulation):
        with pytest.raises(NotImplementedError):
            FederatedStrategy().execute_cycle(1, tiny_simulation)
