"""Integration tests for in-shard hierarchical aggregation.

The contract: with ``aggregation="hierarchical"`` every backend folds
updates slot-locally and ships partial aggregates, yet global weights,
losses and RNG streams stay bit-identical to the flat serial reference —
while upstream (reply) bytes become independent of the fleet size.
"""

import numpy as np
import pytest

from repro.data.synthetic import VirtualClientDatasets
from repro.fl import (AGGREGATION_MODES, ClientConfig, SerialBackend,
                      TrainingSummary, VirtualFleet, make_backend)
from repro.nn import ModelMask

from ..conftest import (FAST_DEVICE, TINY_SPEC, make_tiny_model,
                        make_tiny_simulation)

BACKENDS = ("serial", "persistent", "sharded")
RESIDENT_BACKENDS = ("persistent", "sharded")


def _draw_masks(sim, rng):
    return {1: ModelMask.random(sim.server.global_model,
                                {"fc1": 0.5, "fc2": 0.5}, rng=rng)}


def _collaborate(backend_name, aggregation, masked, num_cycles=2):
    """Losses + final global weights of one tiny collaboration."""
    sim = make_tiny_simulation()
    sim.set_backend(backend_name, max_workers=2, aggregation=aggregation)
    rng = np.random.default_rng(7)
    losses = []
    try:
        for cycle in range(1, num_cycles + 1):
            masks = _draw_masks(sim, rng) if masked else None
            summaries = sim.train_and_aggregate(
                sim.client_indices(), masks=masks, base_cycle=cycle,
                partial=masked)
            losses.append(tuple(s.train_loss for s in summaries))
        weights = sim.server.get_global_weights()
    finally:
        sim.close()
    return losses, weights


#: Serial flat reference runs, computed once per (masked,) variant.
_REFERENCE = {}


def _reference(masked):
    if masked not in _REFERENCE:
        _REFERENCE[masked] = _collaborate("serial", "flat", masked)
    return _REFERENCE[masked]


class TestAggregationKnob:
    def test_default_is_flat(self):
        assert SerialBackend().aggregation == "flat"
        assert make_backend("serial").aggregation == "flat"

    def test_named_backends_accept_hierarchical(self):
        backend = make_backend("serial", aggregation="hierarchical")
        assert backend.aggregation == "hierarchical"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="aggregation"):
            make_backend("serial", aggregation="tree")
        assert "tree" not in AGGREGATION_MODES

    def test_instance_rejects_aggregation(self):
        backend = SerialBackend()
        with pytest.raises(ValueError, match="aggregation"):
            make_backend(backend, aggregation="hierarchical")

    def test_set_backend_forwards_aggregation(self):
        sim = make_tiny_simulation()
        try:
            sim.set_backend("serial", aggregation="hierarchical")
            assert sim.backend.aggregation == "hierarchical"
        finally:
            sim.close()


class TestTrainAndAggregateParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_unmasked_hierarchical_matches_serial_flat(self, backend_name):
        ref_losses, ref_weights = _reference(False)
        losses, weights = _collaborate(backend_name, "hierarchical", False)
        assert losses == ref_losses
        for name in ref_weights:
            np.testing.assert_array_equal(weights[name], ref_weights[name],
                                          err_msg=name)

    @pytest.mark.parametrize("backend_name",
                             ("serial",) + RESIDENT_BACKENDS)
    def test_masked_hierarchical_matches_serial_flat(self, backend_name):
        ref_losses, ref_weights = _reference(True)
        losses, weights = _collaborate(backend_name, "hierarchical", True)
        assert losses == ref_losses
        for name in ref_weights:
            np.testing.assert_array_equal(weights[name], ref_weights[name],
                                          err_msg=name)

    def test_summaries_are_weight_free_updates(self):
        sim = make_tiny_simulation()
        try:
            summaries = sim.train_and_aggregate(sim.client_indices(),
                                                partial=False)
            assert all(isinstance(s, TrainingSummary) for s in summaries)
            assert [s.client_id for s in summaries] == sim.client_indices()
            for index, summary in zip(sim.client_indices(), summaries):
                client = sim.client(index)
                assert summary.client_name == client.name
                assert summary.num_samples == client.num_samples
                assert np.isfinite(summary.train_loss)
        finally:
            sim.close()

    def test_empty_batch_raises(self):
        sim = make_tiny_simulation()
        try:
            with pytest.raises(ValueError):
                sim.train_and_aggregate([])
        finally:
            sim.close()

    def test_hierarchical_advances_server_cycle(self):
        sim = make_tiny_simulation()
        try:
            sim.set_backend("serial", aggregation="hierarchical")
            before = sim.server.current_cycle
            sim.train_and_aggregate(sim.client_indices(), partial=False)
            assert sim.server.current_cycle == before + 1
        finally:
            sim.close()


class TestEmptyBatchShortCircuit:
    """Satellite regression: ``train_clients([])``/``run_jobs([])`` must
    short-circuit identically on every backend — resident backends
    must not open a wire batch."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_empty_batch_returns_empty_list(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        try:
            assert sim.train_clients([]) == []
            assert sim.run_jobs([]) == []
            assert sim.backend.run_jobs(sim.clients, []) == []
        finally:
            sim.close()

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_empty_batch_opens_no_wire_state(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        try:
            assert sim.backend.run_jobs(sim.clients, []) == []
            # No frame was encoded, no worker became resident — the
            # next real batch is a cold start.
            assert sim.backend.last_dispatch_bytes == 0
            assert not sim.backend._resident
        finally:
            sim.close()

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_empty_fold_opens_no_wire_state(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2,
                        aggregation="hierarchical")
        try:
            partials, summaries = sim.backend.run_fold(
                sim.clients, [], [], structure=sim.server.structure)
            assert partials == [] and summaries == []
            assert sim.backend.last_dispatch_bytes == 0
        finally:
            sim.close()


def _tiny_fleet(num_clients):
    return VirtualFleet(
        num_clients=num_clients,
        dataset_factory=VirtualClientDatasets(TINY_SPEC,
                                              samples_per_client=8, seed=11),
        device=FAST_DEVICE,
        model_factory=make_tiny_model,
        config=ClientConfig(batch_size=8, local_epochs=1, learning_rate=0.1),
        seed=3)


class TestVirtualFleets:
    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            _tiny_fleet(0)
        fleet = _tiny_fleet(4)
        with pytest.raises(IndexError):
            fleet.spec_for(4)
        assert fleet.uniform_factor == 0.25

    def test_spec_for_is_deterministic(self):
        fleet = _tiny_fleet(4)
        first = fleet.spec_for(2)
        second = fleet.spec_for(2)
        assert first.client_id == second.client_id == 2
        np.testing.assert_array_equal(first.dataset.images,
                                      second.dataset.images)

    @pytest.mark.parametrize("backend_name,aggregation", [
        ("serial", "hierarchical"),
        ("persistent", "flat"),
        ("persistent", "hierarchical"),
        ("sharded", "hierarchical"),
    ])
    def test_virtual_cycle_matches_serial_flat(self, backend_name,
                                               aggregation):
        def run(name, mode):
            sim = make_tiny_simulation()
            sim.set_backend(name, max_workers=2, aggregation=mode)
            try:
                outcomes = [sim.run_virtual_cycle(_tiny_fleet(12))
                            for _ in range(2)]
                weights = sim.server.get_global_weights()
            finally:
                sim.close()
            return outcomes, weights

        ref_outcomes, ref_weights = run("serial", "flat")
        outcomes, weights = run(backend_name, aggregation)
        assert outcomes == ref_outcomes
        for name in ref_weights:
            np.testing.assert_array_equal(weights[name], ref_weights[name],
                                          err_msg=name)

    def test_upstream_bytes_independent_of_fleet_size(self):
        """The tentpole property: hierarchical shard->parent bytes do not
        grow with the number of logical clients (flat bytes do)."""
        def reply_bytes(mode, num_clients):
            sim = make_tiny_simulation()
            sim.set_backend("persistent", max_workers=2, aggregation=mode)
            try:
                sim.run_virtual_cycle(_tiny_fleet(num_clients))
                return sim.backend.last_reply_bytes
            finally:
                sim.close()

        hier_small = reply_bytes("hierarchical", 8)
        hier_large = reply_bytes("hierarchical", 32)
        assert hier_small == hier_large
        flat_small = reply_bytes("flat", 8)
        flat_large = reply_bytes("flat", 32)
        assert flat_large > 2 * flat_small
        assert flat_large > 2 * hier_large
