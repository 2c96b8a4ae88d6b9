"""Parity suite for the stacked (fused) multi-client training engine.

The fused path of :mod:`repro.fl.fusion` must be *bit-identical* to
serial :meth:`FLClient.local_train` — same losses, same weights, same
RNG streams — for every configuration it declares itself eligible for,
and must conservatively opt out of everything else.  These tests compare
the two paths directly (no backend in between) and through the
persistent backend with ``fusion="stacked"``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.synthetic import VirtualClientDatasets
from repro.fl import ClientConfig, FLClient, make_backend
from repro.fl.fusion import (FUSION_MODES, cluster_signature, train_cluster,
                             train_stacked)
from repro.nn import ModelMask
from repro.nn.layers import Dense, Dropout, Flatten, ReLU
from repro.nn.model import Sequential

from ..conftest import (FAST_DEVICE, TINY_SPEC, make_tiny_dataset,
                        make_tiny_model, make_tiny_simulation)

DEFAULT_CONFIG = ClientConfig(batch_size=20, local_epochs=1,
                              learning_rate=0.1)


class _PlainSubclassClient(FLClient):
    """Semantically identical to FLClient, but a distinct type — which
    makes it fusion-ineligible (module-level so specs can pickle it)."""



def make_fleet(num_clients=3, config=DEFAULT_CONFIG, samples=40,
               model_factory=make_tiny_model):
    return [FLClient(client_id=index,
                     dataset=make_tiny_dataset(samples, seed=index),
                     device=FAST_DEVICE.scaled(name=f"fused-{index}"),
                     model_factory=model_factory, config=config,
                     seed=index)
            for index in range(num_clients)]


def make_job(weights_ref=0, mask=None, local_epochs=None, base_cycle=0):
    """A wire-job stand-in (the executor's ``_WireJob`` shape)."""
    return SimpleNamespace(weights_ref=weights_ref, mask=mask,
                           local_epochs=local_epochs, base_cycle=base_cycle)


def group_of(*jobs):
    return SimpleNamespace(jobs=list(jobs))


def assert_updates_identical(expected, actual):
    assert expected.client_id == actual.client_id
    assert expected.train_loss == actual.train_loss
    assert expected.num_samples == actual.num_samples
    assert expected.local_epochs == actual.local_epochs
    assert expected.weights.keys() == actual.weights.keys()
    for key in expected.weights:
        np.testing.assert_array_equal(expected.weights[key],
                                      actual.weights[key])


def assert_parity(config=DEFAULT_CONFIG, masks=None, local_epochs=None,
                  num_clients=3, samples=40):
    """Serial local_train vs train_cluster on identical twin fleets."""
    weights = make_tiny_model().get_weights()
    serial_fleet = make_fleet(num_clients, config, samples)
    fused_fleet = make_fleet(num_clients, config, samples)
    masks = masks or [None] * num_clients
    serial_updates = [
        client.local_train(weights, mask=mask, local_epochs=local_epochs)
        for client, mask in zip(serial_fleet, masks)]
    members = [(client, make_job(mask=mask, local_epochs=local_epochs))
               for client, mask in zip(fused_fleet, masks)]
    signatures = {cluster_signature(client, group_of(job), [weights])
                  for client, job in members}
    assert len(signatures) == 1 and None not in signatures
    fused_updates = train_cluster(members, [weights])
    for expected, actual in zip(serial_updates, fused_updates):
        assert_updates_identical(expected, actual)
    for serial_client, fused_client in zip(serial_fleet, fused_fleet):
        assert (serial_client.rng.bit_generator.state
                == fused_client.rng.bit_generator.state)
        expected = serial_client.model.get_weights()
        actual = fused_client.model.get_weights()
        for key in expected:
            np.testing.assert_array_equal(expected[key], actual[key])


class TestEligibility:
    def _signature(self, client, job=None, weights=None):
        weights_table = [weights if weights is not None
                         else make_tiny_model().get_weights()]
        return cluster_signature(client, group_of(job or make_job()),
                                 weights_table)

    def test_modes_exported(self):
        assert FUSION_MODES == ("off", "stacked")
        from repro.fl import FUSION_MODES as reexported
        assert reexported is FUSION_MODES

    def test_homogeneous_fleet_shares_one_signature(self):
        signatures = {self._signature(client)
                      for client in make_fleet(num_clients=3)}
        assert len(signatures) == 1
        assert None not in signatures

    def test_multi_job_group_is_ineligible(self):
        client = make_fleet(num_clients=1)[0]
        weights = [make_tiny_model().get_weights()]
        group = group_of(make_job(), make_job())
        assert cluster_signature(client, group, weights) is None

    def test_subclassed_client_is_ineligible(self):
        class TracingClient(FLClient):
            pass

        client = make_fleet(num_clients=1)[0]
        traced = TracingClient(client_id=9, dataset=client.dataset,
                               device=client.device,
                               model_factory=make_tiny_model,
                               config=DEFAULT_CONFIG, seed=9)
        assert self._signature(traced) is None

    def test_unmodelled_layer_is_ineligible(self):
        def dropout_model(seed=7):
            generator = np.random.default_rng(seed)
            return Sequential([
                Flatten(name="flatten"),
                Dense(64, 8, rng=generator, name="fc1"),
                ReLU(name="relu1"),
                Dropout(0.5, name="drop"),
                Dense(8, 4, rng=generator, name="output"),
            ], name="dropout-mlp")

        client = make_fleet(num_clients=1,
                            model_factory=dropout_model)[0]
        assert cluster_signature(client, group_of(make_job()),
                                 [dropout_model().get_weights()]) is None

    def test_missing_snapshot_parameter_is_ineligible(self):
        client = make_fleet(num_clients=1)[0]
        weights = make_tiny_model().get_weights()
        weights.pop("fc1/weight")
        assert self._signature(client, weights=weights) is None

    def test_fortran_order_snapshot_is_ineligible(self):
        client = make_fleet(num_clients=1)[0]
        weights = make_tiny_model().get_weights()
        weights["fc1/weight"] = np.asfortranarray(weights["fc1/weight"])
        assert self._signature(client, weights=weights) is None

    def test_unknown_mask_layer_is_ineligible(self):
        client = make_fleet(num_clients=1)[0]
        mask = ModelMask({"no-such-layer": np.ones(16, dtype=bool)})
        assert self._signature(client, job=make_job(mask=mask)) is None

    def test_wrong_mask_shape_is_ineligible(self):
        client = make_fleet(num_clients=1)[0]
        mask = ModelMask({"fc1": np.ones(7, dtype=bool)})
        assert self._signature(client, job=make_job(mask=mask)) is None

    def test_bad_weights_ref_is_ineligible(self):
        client = make_fleet(num_clients=1)[0]
        assert self._signature(client, job=make_job(weights_ref=5)) is None

    def test_epoch_override_changes_signature(self):
        client = make_fleet(num_clients=1)[0]
        plain = self._signature(client)
        overridden = self._signature(client, job=make_job(local_epochs=3))
        assert plain is not None and overridden is not None
        assert plain != overridden


class TestStackedParity:
    def test_default_config(self):
        assert_parity()

    def test_single_client_cluster(self):
        assert_parity(num_clients=1)

    def test_multi_epoch(self):
        assert_parity(config=ClientConfig(batch_size=20, local_epochs=3,
                                          learning_rate=0.1))

    def test_non_divisible_batch_size(self):
        # 40 samples, batches of 12 → a ragged final batch of 4.
        assert_parity(config=ClientConfig(batch_size=12, local_epochs=1,
                                          learning_rate=0.1))

    def test_multi_epoch_and_non_divisible_batches(self):
        assert_parity(config=ClientConfig(batch_size=12, local_epochs=2,
                                          learning_rate=0.1))

    def test_batch_size_larger_than_dataset(self):
        assert_parity(config=ClientConfig(batch_size=64, local_epochs=2,
                                          learning_rate=0.1))

    def test_epoch_override_via_job(self):
        assert_parity(local_epochs=3)

    def test_momentum(self):
        assert_parity(config=ClientConfig(batch_size=20, local_epochs=2,
                                          learning_rate=0.1, momentum=0.9))

    def test_weight_decay(self):
        assert_parity(config=ClientConfig(batch_size=20, local_epochs=2,
                                          learning_rate=0.1,
                                          weight_decay=0.01))

    def test_heterogeneous_masks(self):
        rng = np.random.default_rng(11)
        model = make_tiny_model()
        masks = [ModelMask.random(model, {"fc1": 0.5, "fc2": 0.75}, rng),
                 None,
                 ModelMask.random(model, {"fc1": 0.25}, rng)]
        assert_parity(masks=masks)

    def test_masks_with_momentum_and_ragged_batches(self):
        rng = np.random.default_rng(5)
        model = make_tiny_model()
        masks = [ModelMask.random(model, {"fc1": 0.5}, rng), None, None]
        assert_parity(config=ClientConfig(batch_size=12, local_epochs=2,
                                          learning_rate=0.1, momentum=0.9),
                      masks=masks)


def make_virtual_shape_model(seed=3):
    """The virtual fleets' 64 -> 16 -> 4 MLP."""
    generator = np.random.default_rng(seed)
    return Sequential([
        Flatten(name="flatten"),
        Dense(64, 16, rng=generator, name="fc1"),
        ReLU(name="relu1"),
        Dense(16, 4, rng=generator, name="output"),
    ], name="virtual-mlp")


class TestTrainStackedCore:
    """The array-level engine on its own: stacked datasets in, stacked
    parameters + losses out, slice ``j`` == client ``j``'s serial run."""

    @staticmethod
    def _chunk(num_clients=64):
        factory = VirtualClientDatasets(TINY_SPEC, samples_per_client=8,
                                        seed=5)
        return factory, factory.batch(range(num_clients))

    @pytest.mark.parametrize("num_clients", [1, 64])
    @pytest.mark.parametrize("config", [
        ClientConfig(batch_size=8, local_epochs=1, learning_rate=0.1),
        ClientConfig(batch_size=3, local_epochs=3, learning_rate=0.1,
                     momentum=0.9, weight_decay=0.01),
    ], ids=["one-step", "momentum-decay-3ep-ragged"])
    def test_virtual_shape_matches_serial(self, num_clients, config):
        factory, (images, labels) = self._chunk(num_clients)
        weights = make_virtual_shape_model().get_weights()
        serial = [FLClient(client_id=index, dataset=factory(index),
                           device=FAST_DEVICE,
                           model_factory=make_virtual_shape_model,
                           config=config, seed=9)
                  for index in range(num_clients)]
        stacked, losses = train_stacked(
            make_virtual_shape_model(), weights, images, labels,
            [client.spec.initial_rng() for client in serial], config,
            config.local_epochs)
        assert list(stacked) == list(weights)
        assert losses.shape == (num_clients,)
        for index, client in enumerate(serial):
            update = client.local_train(weights)
            assert float(losses[index]) == update.train_loss
            for name, value in update.weights.items():
                assert stacked[name][index].tobytes() == value.tobytes()

    def test_leaves_the_snapshot_untouched(self):
        _, (images, labels) = self._chunk(4)
        weights = make_virtual_shape_model().get_weights()
        before = {name: value.copy() for name, value in weights.items()}
        train_stacked(make_virtual_shape_model(), weights, images, labels,
                      [np.random.default_rng(i) for i in range(4)],
                      DEFAULT_CONFIG, 1)
        for name in before:
            np.testing.assert_array_equal(weights[name], before[name])

    @pytest.mark.parametrize("bad_label", [4, -1])
    def test_labels_outside_the_logits_raise_like_the_loss(self, bad_label):
        _, (images, labels) = self._chunk(4)
        labels = labels.copy()
        labels[2, 5] = bad_label
        model = make_virtual_shape_model()
        with pytest.raises(ValueError, match="labels out of range"):
            train_stacked(model, model.get_weights(), images, labels,
                          [np.random.default_rng(i) for i in range(4)],
                          DEFAULT_CONFIG, 1)

    def test_nonpositive_epochs_raise_like_local_train(self):
        _, (images, labels) = self._chunk(2)
        model = make_virtual_shape_model()
        with pytest.raises(ValueError, match="local_epochs"):
            train_stacked(model, model.get_weights(), images, labels,
                          [np.random.default_rng(i) for i in range(2)],
                          DEFAULT_CONFIG, 0)

    def test_model_outside_the_whitelist_is_refused(self):
        _, (images, labels) = self._chunk(2)
        model = Sequential([Flatten(name="flatten"),
                            Dropout(0.5, name="drop"),
                            Dense(64, 4, name="output")])
        with pytest.raises(ValueError, match="stacked engine"):
            train_stacked(model, model.get_weights(), images, labels,
                          [np.random.default_rng(i) for i in range(2)],
                          DEFAULT_CONFIG, 1)


class TestFusedBackendParity:
    """End-to-end: fused and unfused backend runs are bit-identical."""

    @staticmethod
    def _history(fusion, config):
        sim = make_tiny_simulation(num_capable=4, num_stragglers=2)
        for index in sim.client_indices():
            sim.client(index).config = config
        if fusion is not None:
            sim.set_backend("persistent", max_workers=2, fusion=fusion)
        losses = []
        try:
            for _ in range(3):
                updates = sim.train_clients(sim.client_indices())
                losses.extend(update.train_loss for update in updates)
            weights = [client.model.get_weights()
                       for client in sim.clients]
            rng_states = [client.rng.bit_generator.state["state"]
                          for client in sim.clients]
        finally:
            sim.close()
        return losses, weights, rng_states

    @pytest.mark.parametrize("config", [
        ClientConfig(batch_size=20, local_epochs=1, learning_rate=0.1),
        # The satellite case: multi-epoch with a ragged final batch.
        ClientConfig(batch_size=12, local_epochs=2, learning_rate=0.1),
    ], ids=["even-batches", "multi-epoch-ragged"])
    def test_fused_unfused_and_serial_histories_identical(self, config):
        serial = self._history(None, config)
        unfused = self._history("off", config)
        fused = self._history("stacked", config)
        for actual in (unfused, fused):
            assert actual[0] == serial[0]
            assert actual[2] == serial[2]
            for expected, got in zip(serial[1], actual[1]):
                for key in expected:
                    np.testing.assert_array_equal(expected[key], got[key])

    def test_mixed_fleet_matches_serial(self):
        """Ineligible clients fall back to the classic loop in place."""

        def run(fused):
            sim = make_tiny_simulation(num_capable=3, num_stragglers=1)
            # A subclass opts out of fusion (its training loop could be
            # overridden); it must train classically inside the same
            # batch as its fused peers.
            sim.add_client(_PlainSubclassClient(
                client_id=sim.num_clients(),
                dataset=make_tiny_dataset(40, seed=77),
                device=FAST_DEVICE.scaled(name="odd-one-out"),
                model_factory=make_tiny_model,
                config=ClientConfig(batch_size=20, learning_rate=0.1)))
            if fused:
                sim.set_backend("persistent", max_workers=2,
                                fusion="stacked")
            try:
                updates = sim.train_clients(sim.client_indices())
                return ([update.train_loss for update in updates],
                        [client.model.get_weights()
                         for client in sim.clients])
            finally:
                sim.close()

        serial_losses, serial_weights = run(fused=False)
        fused_losses, fused_weights = run(fused=True)
        assert fused_losses == serial_losses
        for expected, got in zip(serial_weights, fused_weights):
            for key in expected:
                np.testing.assert_array_equal(expected[key], got[key])


class TestFusionOption:
    """``make_backend`` validation of the ``fusion`` option."""

    def test_fusion_requires_resident_backend(self):
        with pytest.raises(ValueError, match="fusion"):
            make_backend("serial", fusion="stacked")

    def test_instance_passthrough_rejects_fusion(self):
        backend = make_backend("persistent", max_workers=1)
        try:
            with pytest.raises(ValueError, match="already-constructed"):
                make_backend(backend, fusion="stacked")
        finally:
            backend.close()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="fusion"):
            make_backend("persistent", fusion="fused")
