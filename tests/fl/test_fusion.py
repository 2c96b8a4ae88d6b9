"""Parity suite for stacked multi-client training.

A stacked pass (:mod:`repro.fl.fusion`: a twin of the clients' model with
a leading client axis, trained by ``nn``'s own ``train_step``) must be
*bit-identical* to serial :meth:`FLClient.local_train` — same losses,
same weights, same RNG streams — for every cluster it forms, must refuse
what serial refuses with the same exception type, and must leave
everything it cannot stack to the classic loop.  These tests compare the
two routes directly (no backend in between) and through the resident
backends, which stack every eligible cluster with no option to say so.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.helios import HeliosConfig, HeliosStrategy
from repro.core.selection import SoftTrainingSelector
from repro.data.synthetic import (SyntheticImageSpec, VirtualClientDatasets,
                                  make_classification_images)
from repro.experiments.common import (SCALES, ExperimentSetting,
                                      make_simulation_factory)
from repro.fl import (ClientConfig, FederatedSimulation, FLClient, FLServer,
                      VirtualFleet)
from repro.fl import executor, fusion
from repro.fl.fusion import cluster_signature, train_cluster, train_stacked
from repro.nn import ModelMask
from repro.nn.compact import compact_shape, compactable
from repro.nn.layers import (BatchNorm1D, Dense, Dropout, Flatten, ReLU,
                             Sigmoid)
from repro.nn.model import Sequential
from repro.nn.models import build_lenet

from ..conftest import (FAST_DEVICE, TINY_SPEC, make_tiny_dataset,
                        make_tiny_model, make_tiny_simulation)

DEFAULT_CONFIG = ClientConfig(batch_size=20, local_epochs=1,
                              learning_rate=0.1)
#: Momentum, decay, two epochs and a ragged last batch (40 = 3 x 12 + 4).
HEAVY_CONFIG = ClientConfig(batch_size=12, local_epochs=2, learning_rate=0.05,
                            momentum=0.9, weight_decay=0.01)

_LENET_SPEC = SyntheticImageSpec(
    name="tiny-lenet", image_shape=(1, 12, 12), num_classes=4,
    separation=1.2, noise_std=0.5, max_shift=1, label_noise=0.0,
    prototypes_per_class=1, smoothness=2)


def make_lenet(seed=7):
    """LeNet (padded conv, max pools, three dense layers) on 1x12x12."""
    return build_lenet(input_shape=(1, 12, 12), num_classes=4,
                       width_multiplier=0.5, rng=np.random.default_rng(seed))


def make_lenet_dataset(samples, seed=0):
    return make_classification_images(samples, _LENET_SPEC,
                                      np.random.default_rng(seed))


#: model name -> (model factory, dataset factory)
MODELS = {"mlp": (make_tiny_model, make_tiny_dataset),
          "lenet": (make_lenet, make_lenet_dataset)}


class _PlainSubclassClient(FLClient):
    """Semantically identical to FLClient, but a distinct type — which
    makes it ineligible for stacking (module-level so specs can pickle
    it)."""


def make_fleet(num_clients=3, config=DEFAULT_CONFIG, samples=40,
               model_factory=make_tiny_model, dataset=make_tiny_dataset):
    return [FLClient(client_id=index,
                     dataset=dataset(samples, seed=index),
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
        assert expected.weights[key].dtype == actual.weights[key].dtype
        assert expected.weights[key].tobytes() == actual.weights[key].tobytes()


def assert_parity(config=DEFAULT_CONFIG, masks=None, local_epochs=None,
                  num_clients=3, samples=40, model="mlp"):
    """Serial local_train vs train_cluster on identical twin fleets."""
    model_factory, dataset = MODELS[model]
    weights = model_factory().get_weights()
    serial_fleet = make_fleet(num_clients, config, samples, model_factory,
                              dataset)
    fused_fleet = make_fleet(num_clients, config, samples, model_factory,
                             dataset)
    masks = masks or [None] * num_clients
    serial_updates = [
        client.local_train(weights, mask=mask, local_epochs=local_epochs)
        for client, mask in zip(serial_fleet, masks)]
    members = [(client, make_job(mask=mask, local_epochs=local_epochs))
               for client, mask in zip(fused_fleet, masks)]
    # Masked members stack by compact shape: one pass per signature.
    clusters = {}
    for position, (client, job) in enumerate(members):
        signature = cluster_signature(client, group_of(job), [weights])
        assert signature is not None
        clusters.setdefault(signature, []).append(position)
    assert len(clusters) == len({compact_shape(fused_fleet[0].model, mask)
                                 for mask in masks})
    fused_updates = [None] * num_clients
    for positions in clusters.values():
        for position, update in zip(positions, train_cluster(
                [members[position] for position in positions], [weights])):
            fused_updates[position] = update
    for expected, actual in zip(serial_updates, fused_updates):
        assert_updates_identical(expected, actual)
    for serial_client, fused_client in zip(serial_fleet, fused_fleet):
        assert (serial_client.rng.bit_generator.state
                == fused_client.rng.bit_generator.state)
        expected = serial_client.model.get_weights()
        actual = fused_client.model.get_weights()
        for key in expected:
            assert expected[key].tobytes() == actual[key].tobytes()
            assert actual[key].flags.c_contiguous


def mixed_masks(model, num_clients, seed=11):
    """Every other client masked: random dense units and conv filters,
    one client with every filter of the first conv off."""
    rng = np.random.default_rng(seed)
    layers = [layer.name for layer in model.neuron_layers()]
    masks = []
    for index in range(num_clients):
        if index % 2 == 0:
            masks.append(None)
            continue
        mask = ModelMask.random(model, {name: 0.5 for name in layers}, rng)
        if index == 1 and "lenet/conv1" in mask:
            mask = ModelMask({**mask.as_dict(), "lenet/conv1": np.zeros(
                mask["lenet/conv1"].shape, dtype=bool)})
        masks.append(mask)
    return masks


class TestEligibility:
    def _signature(self, client, job=None, weights=None):
        weights_table = [weights if weights is not None
                         else make_tiny_model().get_weights()]
        return cluster_signature(client, group_of(job or make_job()),
                                 weights_table)

    def test_homogeneous_fleet_shares_one_signature(self):
        signatures = {self._signature(client)
                      for client in make_fleet(num_clients=3)}
        assert len(signatures) == 1
        assert None not in signatures

    def test_lenet_fleet_shares_one_signature(self):
        weights = [make_lenet().get_weights()]
        signatures = {cluster_signature(client, group_of(make_job()),
                                        weights)
                      for client in make_fleet(
                          3, model_factory=make_lenet,
                          dataset=make_lenet_dataset)}
        assert len(signatures) == 1 and None not in signatures

    def test_different_topology_or_schedule_never_shares(self):
        def wider(seed=7):
            generator = np.random.default_rng(seed)
            return Sequential([Flatten(name="flatten"),
                               Dense(64, 16, rng=generator, name="fc1"),
                               ReLU(name="relu1"),
                               Dense(16, 8, rng=generator, name="fc2"),
                               ReLU(name="relu2"),
                               Dense(8, 4, rng=generator, name="output",
                                     use_bias=False)], name="tiny-mlp")

        plain = self._signature(make_fleet(1)[0])
        other_model = make_fleet(1, model_factory=wider)[0]
        weights = wider().get_weights()
        assert cluster_signature(other_model, group_of(make_job()),
                                 [weights]) not in (None, plain)
        other_config = make_fleet(1, config=ClientConfig(
            batch_size=20, learning_rate=0.2))[0]
        assert self._signature(other_config) not in (None, plain)
        other_size = make_fleet(1, samples=30)[0]
        assert self._signature(other_size) not in (None, plain)

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

    def test_batchnorm_model_is_ineligible(self):
        client = make_fleet(num_clients=1,
                            model_factory=make_batchnorm_model)[0]
        assert cluster_signature(
            client, group_of(make_job()),
            [make_batchnorm_model().get_weights()]) is None

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
        # Not by the signature: the stacked pass refuses the mask with
        # serial's KeyError and the executor re-runs the member alone.
        client = make_fleet(num_clients=1)[0]
        mask = ModelMask({"no-such-layer": np.ones(16, dtype=bool)})
        with pytest.raises(KeyError):
            train_cluster([(client, make_job(mask=mask))],
                          [make_tiny_model().get_weights()])

    def test_wrong_mask_shape_is_ineligible(self):
        client = make_fleet(num_clients=1)[0]
        mask = ModelMask({"fc1": np.ones(7, dtype=bool)})
        with pytest.raises(ValueError, match="mask shape"):
            train_cluster([(client, make_job(mask=mask))],
                          [make_tiny_model().get_weights()])

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

    @pytest.mark.parametrize("num_clients", [1, 2, 16, 64])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_cluster_sizes_with_masks_momentum_decay_ragged(
            self, model, num_clients):
        assert_parity(config=HEAVY_CONFIG, model=model,
                      num_clients=num_clients,
                      masks=mixed_masks(MODELS[model][0](), num_clients))

    def test_full_mask_stacks_with_unmasked_clients(self):
        model = make_tiny_model()
        assert_parity(masks=[None, ModelMask.full(model), None])

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_one_volume_is_one_compact_cluster(self, model):
        """Helios gives every layer of a straggler one volume, so
        stragglers of one volume — different neurons each — stack as one
        pass of compact sub-networks, slice j bit-identical to client j's
        serial compact training."""
        reference = MODELS[model][0]()
        fractions = {layer.name: 0.3 for layer in reference.neuron_layers()}
        masks = [SoftTrainingSelector(
            reference, fractions, rng=np.random.default_rng(seed)).select()
            for seed in range(6)]
        assert len({compact_shape(reference, mask) for mask in masks}) == 1
        assert len({mask["fc1" if model == "mlp" else "lenet/fc1"].tobytes()
                    for mask in masks}) > 1
        assert_parity(config=HEAVY_CONFIG, model=model, num_clients=6,
                      masks=masks)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_local_epochs_override(self, model):
        assert_parity(config=HEAVY_CONFIG, model=model, num_clients=4,
                      local_epochs=3,
                      masks=mixed_masks(MODELS[model][0](), 4, seed=3))


def _error_type(call):
    try:
        call()
    except Exception as exc:  # the type is what the test compares
        return type(exc)
    return None


def _misfit_labels(samples, seed=0):
    dataset = make_tiny_dataset(samples, seed=seed)
    labels = dataset.labels.copy()
    labels[-1] = 4
    return type(dataset)(dataset.images, labels, num_classes=5)


def _wide_images(samples, seed=0):
    dataset = make_tiny_dataset(samples, seed=seed)
    return type(dataset)(np.concatenate([dataset.images] * 2, axis=-1),
                         dataset.labels, dataset.num_classes)


def _two_channel_images(samples, seed=0):
    dataset = make_lenet_dataset(samples, seed=seed)
    return type(dataset)(np.concatenate([dataset.images] * 2, axis=1),
                         dataset.labels, dataset.num_classes)


def _weights_without(name):
    def weights(model):
        table = model.get_weights()
        table.pop(name)
        return table
    return weights


def _weights_reshaped(name):
    def weights(model):
        table = model.get_weights()
        table[name] = table[name][..., :-1]
        return table
    return weights


class TestErrorParity:
    """Whatever the classic route refuses, the stacked route refuses with
    the same exception type — the checks live once, in ``nn``."""

    CASES = {
        # name: (model, dataset, weights(model), mask(model), epochs)
        "dense-features": ("mlp", _wide_images, None, None, None),
        "conv-channels": ("lenet", _two_channel_images, None, None, None),
        "labels-out-of-range": ("mlp", _misfit_labels, None, None, None),
        "no-epochs": ("mlp", None, None, None, 0),
        "mask-shape": ("mlp", None, None,
                       lambda model: ModelMask({"fc1": np.ones(7, bool)}),
                       None),
        "filter-mask-shape": ("lenet", None, None,
                              lambda model: ModelMask(
                                  {"lenet/conv2": np.ones(3, bool)}), None),
        "mask-layer": ("mlp", None, None,
                       lambda model: ModelMask({"nope": np.ones(4, bool)}),
                       None),
        "weights-shape": ("mlp", None, _weights_reshaped("fc2/weight"),
                          None, None),
        "weights-missing": ("lenet", None,
                            _weights_without("lenet/conv1/bias"), None,
                            None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stacked_raises_what_classic_raises(self, case):
        model, dataset, weights_of, mask_of, epochs = self.CASES[case]
        model_factory, default_dataset = MODELS[model]
        weights = (weights_of or (lambda m: m.get_weights()))(
            model_factory())
        mask = mask_of(model_factory()) if mask_of else None
        fleets = [make_fleet(3, model_factory=model_factory,
                             dataset=dataset or default_dataset)
                  for _ in range(2)]
        classic = _error_type(lambda: [
            client.local_train(weights, mask=mask, local_epochs=epochs)
            for client in fleets[0]])
        stacked = _error_type(lambda: train_cluster(
            [(client, make_job(mask=mask, local_epochs=epochs))
             for client in fleets[1]], [weights]))
        assert classic is not None
        assert stacked is classic

    def test_one_bad_mask_among_good_ones(self):
        fleet = make_fleet(3)
        masks = [None, ModelMask({"fc1": np.ones(7, bool)}), None]
        with pytest.raises(ValueError):
            train_cluster([(client, make_job(mask=mask))
                           for client, mask in zip(fleet, masks)],
                          [make_tiny_model().get_weights()])

    def test_twin_refuses_backward_before_its_own_forward(self):
        model = make_lenet()
        model.forward(make_lenet_dataset(4).images)
        twin = model.stacked(2)
        for layer in twin.layers:
            with pytest.raises(RuntimeError, match="before forward"):
                layer.backward(np.zeros((2, 4, 4)))


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
    """The array-level engine on its own: the clients' datasets in,
    stacked parameters + losses out, slice ``j`` == client ``j``'s serial
    run."""

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
        for arrays in ((images, labels),
                       (list(images), list(labels))):
            stacked, losses = train_stacked(
                make_virtual_shape_model(), weights, *arrays,
                [client.spec.initial_rng() for client in serial], config,
                config.local_epochs)
            assert list(stacked) == list(weights)
            assert losses.shape == (num_clients,)
            for index, client in enumerate(serial):
                update = client.spec.build().local_train(weights)
                assert float(losses[index]) == update.train_loss
                for name, value in update.weights.items():
                    assert stacked[name][index].tobytes() == value.tobytes()

    def test_leaves_the_snapshot_untouched(self):
        _, (images, labels) = self._chunk(4)
        model = make_virtual_shape_model()
        weights = model.get_weights()
        before = {name: value.copy() for name, value in weights.items()}
        train_stacked(model, weights, images, labels,
                      [np.random.default_rng(i) for i in range(4)],
                      DEFAULT_CONFIG, 1)
        for name in before:
            np.testing.assert_array_equal(weights[name], before[name])
            np.testing.assert_array_equal(model.get_weights()[name],
                                          before[name])

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


class TestRefusedConfig:
    """``ClientConfig`` refuses what the optimizers refuse, so no route —
    serial, a resident cluster, a virtual chunk — ever receives it; one
    forced past construction is still refused by the optimizers, which
    every route now shares."""

    BAD = {"momentum": (1.5, "momentum must be in"),
           "weight_decay": (-0.5, "weight_decay must be non-negative")}

    @staticmethod
    def _forced(field, value):
        config = ClientConfig(batch_size=20, learning_rate=0.1,
                              momentum=0.5)
        object.__setattr__(config, field, value)
        return config

    @pytest.mark.parametrize("field", sorted(BAD))
    def test_construction_refuses(self, field):
        value, message = self.BAD[field]
        with pytest.raises(ValueError, match=message):
            ClientConfig(**{field: value})

    @pytest.mark.parametrize("route", ["serial", "resident-cluster",
                                       "virtual-chunk"])
    @pytest.mark.parametrize("field", sorted(BAD))
    def test_every_route_refuses_a_forced_config(self, field, route):
        value, message = self.BAD[field]
        config = self._forced(field, value)
        weights = make_tiny_model().get_weights()
        with pytest.raises(ValueError, match=message):
            if route == "serial":
                make_fleet(1, config=config)[0].local_train(weights)
            elif route == "resident-cluster":
                train_cluster([(client, make_job())
                               for client in make_fleet(2, config=config)],
                              [weights])
            else:
                fleet = VirtualFleet(
                    num_clients=8, dataset_factory=VirtualClientDatasets(
                        TINY_SPEC, samples_per_client=8, seed=1),
                    device=FAST_DEVICE, model_factory=make_tiny_model,
                    config=config, seed=3)
                executor._run_virtual_batch(executor._WireVirtualBatch(
                    weights_table=[weights], template=fleet, lo=0, hi=8,
                    factor=fleet.uniform_factor,
                    loss_scale=fleet.uniform_factor, return_updates=False))


class TestBatchGroups:
    """The worker side of a resident batch: eligible groups stack, and a
    stacked pass that raises is re-run member by member, so every group
    meets exactly its serial outcome."""

    @staticmethod
    def _groups(fleet, weights):
        return [executor._WireGroup(
            index=index, spec=client.spec,
            rng_state=client.rng.bit_generator.state,
            jobs=[executor._WireJob(weights_ref=0, mask=None,
                                    local_epochs=None, base_cycle=0)])
            for index, client in enumerate(fleet)]

    def test_a_failing_member_fails_alone(self):
        weights = make_tiny_model().get_weights()
        fleet = make_fleet(3) + [FLClient(
            client_id=3, dataset=_misfit_labels(40, seed=3),
            device=FAST_DEVICE, model_factory=make_tiny_model,
            config=DEFAULT_CONFIG, seed=3)]
        residents = {}
        outcomes = executor._train_batch_groups(
            residents, [weights], self._groups(fleet, weights))
        assert [outcome[0] for outcome in outcomes] == ["ok"] * 3 + ["error"]
        assert isinstance(outcomes[3][1], ValueError)
        assert 3 not in residents
        for client, outcome in zip(make_fleet(3), outcomes):
            assert_updates_identical(client.local_train(weights),
                                     outcome[1][0])
            assert outcome[2] == client.rng.bit_generator.state

    def test_clusters_are_cut_at_the_chunk(self, monkeypatch):
        sizes = []

        def spy(members, weights_table):
            sizes.append(len(members))
            return train_cluster(members, weights_table)

        monkeypatch.setattr(executor, "train_cluster", spy)
        monkeypatch.setattr(executor, "_STACK_CHUNK", 4)
        weights = make_tiny_model().get_weights()
        fleet = make_fleet(9)
        outcomes = executor._train_batch_groups(
            {}, [weights], self._groups(fleet, weights))
        # 4 + 4 stack; the ninth trains alone.
        assert sizes == [4, 4]
        for client, outcome in zip(make_fleet(9), outcomes):
            assert_updates_identical(client.local_train(weights),
                                     outcome[1][0])


class TestFusedBackendParity:
    """End-to-end: the resident backends stack eligible clients and stay
    bit-identical to serial."""

    @staticmethod
    def _history(backend, config):
        sim = make_tiny_simulation(num_capable=4, num_stragglers=2)
        for index in sim.client_indices():
            sim.client(index).config = config
        if backend is not None:
            sim.set_backend(backend, max_workers=2)
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
        # Multi-epoch with a ragged final batch.
        ClientConfig(batch_size=12, local_epochs=2, learning_rate=0.1),
    ], ids=["even-batches", "multi-epoch-ragged"])
    def test_fused_unfused_and_serial_histories_identical(self, config):
        serial = self._history(None, config)
        for actual in (self._history("persistent", config),
                       self._history("sharded", config)):
            assert actual[0] == serial[0]
            assert actual[2] == serial[2]
            for expected, got in zip(serial[1], actual[1]):
                for key in expected:
                    np.testing.assert_array_equal(expected[key], got[key])

    def test_mixed_fleet_matches_serial(self):
        """Ineligible clients fall back to the classic loop in place."""

        def run(resident):
            sim = make_tiny_simulation(num_capable=3, num_stragglers=1)
            # A subclass opts out of stacking (its training loop could be
            # overridden); it must train classically inside the same
            # batch as its stacked peers.
            sim.add_client(_PlainSubclassClient(
                client_id=sim.num_clients(),
                dataset=make_tiny_dataset(40, seed=77),
                device=FAST_DEVICE.scaled(name="odd-one-out"),
                model_factory=make_tiny_model,
                config=ClientConfig(batch_size=20, learning_rate=0.1)))
            if resident:
                sim.set_backend("persistent", max_workers=2)
            try:
                updates = sim.train_clients(sim.client_indices())
                return ([update.train_loss for update in updates],
                        [client.model.get_weights()
                         for client in sim.clients])
            finally:
                sim.close()

        serial_losses, serial_weights = run(resident=False)
        fused_losses, fused_weights = run(resident=True)
        assert fused_losses == serial_losses
        for expected, got in zip(serial_weights, fused_weights):
            for key in expected:
                np.testing.assert_array_equal(expected[key], got[key])


def make_batchnorm_model(seed=7):
    """An MLP with batch norm: trains client by client."""
    generator = np.random.default_rng(seed)
    return Sequential([
        Flatten(name="flatten"),
        Dense(64, 16, rng=generator, name="fc1"),
        BatchNorm1D(16, name="bn1"),
        ReLU(name="relu1"),
        Dense(16, 4, rng=generator, name="output"),
    ], name="bn-mlp")


class _RouteLog:
    """Counts, across forked workers, which route each training took:
    every stacked pass and every classic ``local_train`` appends a line
    to a file the parent reads afterwards."""

    def __init__(self, monkeypatch, path):
        self.path = str(path)
        stacked, classic = fusion.train_stacked, FLClient.local_train

        def logged_stacked(model, *args, **kwargs):
            self._log("stacked")
            return stacked(model, *args, **kwargs)

        def logged_classic(client, *args, **kwargs):
            self._log("classic")
            return classic(client, *args, **kwargs)

        monkeypatch.setattr(fusion, "train_stacked", logged_stacked)
        monkeypatch.setattr(FLClient, "local_train", logged_classic)

    def _log(self, route):
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {route}\n")

    def routes(self):
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as handle:
            return [line.split() for line in handle]


class TestRoutes:
    """Which route a real resident fleet takes — with no option to ask."""

    def test_lenet_helios_fleet_stacks_on_two_workers(self, monkeypatch,
                                                      tmp_path):
        # Two capable clients a worker stack unmasked; a masked client
        # stacks only with one of its compact shape on its own worker.
        setting = ExperimentSetting("mnist", "lenet", num_capable=4,
                                    num_stragglers=2, seed=1)
        factory, _ = make_simulation_factory(setting, SCALES["smoke"])

        def run(backend):
            sim = factory()
            if backend is not None:
                sim.set_backend(backend, max_workers=2)
            try:
                history = sim.run(HeliosStrategy(HeliosConfig(
                    straggler_top_k=2, seed=1)), 2)
                return history, sim.server.get_global_weights()
            finally:
                sim.close()

        reference = run(None)
        log = _RouteLog(monkeypatch, tmp_path / "routes.log")
        history, weights = run("persistent")
        routes = log.routes()
        workers = {pid for pid, route in routes if route == "stacked"}
        assert len(workers) == 2, routes
        assert history.accuracies() == reference[0].accuracies()
        assert history.losses() == reference[0].losses()
        for name, value in reference[1].items():
            assert weights[name].tobytes() == value.tobytes()

    def test_batchnorm_fleet_trains_client_by_client(self, monkeypatch,
                                                     tmp_path):
        log = _RouteLog(monkeypatch, tmp_path / "routes.log")
        clients = make_fleet(4, model_factory=make_batchnorm_model)
        sim = FederatedSimulation(
            clients, FLServer(make_batchnorm_model,
                              test_dataset=make_tiny_dataset(20, seed=9)),
            input_shape=(1, 8, 8))
        sim.set_backend("persistent", max_workers=2)
        try:
            sim.train_clients(sim.client_indices())
        finally:
            sim.close()
        routes = [route for _, route in log.routes()]
        assert routes.count("stacked") == 0
        assert routes.count("classic") == 4


def make_sigmoid_model(seed=7):
    """An MLP with a Sigmoid (0 -> 0.5): its masked neurons still emit,
    so it trains masked, client by client."""
    generator = np.random.default_rng(seed)
    return Sequential([
        Flatten(name="flatten"),
        Dense(64, 16, rng=generator, name="fc1"),
        Sigmoid(name="sigmoid1"),
        Dense(16, 4, rng=generator, name="output"),
    ], name="sigmoid-mlp")


def _sigmoid_simulation():
    sim = make_tiny_simulation(num_capable=2, num_stragglers=2)
    clients = [FLClient(client_id=client.client_id, dataset=client.dataset,
                        device=client.device,
                        model_factory=make_sigmoid_model,
                        config=client.config, seed=0)
               for client in sim.clients]
    return FederatedSimulation(
        clients, FLServer(make_sigmoid_model,
                          test_dataset=sim.server.test_dataset),
        input_shape=(1, 8, 8), workload_scale=200.0, seed=0)


def _alexnet_simulation():
    factory, _ = make_simulation_factory(
        ExperimentSetting("cifar10", "alexnet", num_capable=2,
                          num_stragglers=2, seed=0), SCALES["smoke"])
    return factory()


def dense_mask_local_train(self, global_weights, mask=None,
                           local_epochs=None, base_cycle=0):
    """``FLClient.local_train`` as every masked client ran it before
    compaction: the full model, outputs and gradients masked."""
    epochs = (local_epochs if local_epochs is not None
              else self.config.local_epochs)
    self.model.set_weights(global_weights)
    if mask is not None:
        mask.apply(self.model)
    else:
        self.model.clear_neuron_masks()
    self.model.train()
    loss_fn = self.loss_factory()
    optimizer = self.config.make_optimizer(self.model.parameters())
    losses = [self.model.train_step(images, labels, loss_fn, optimizer)
              for _ in range(epochs)
              for images, labels in self.dataset.batches(
                  self.config.batch_size, rng=self.rng)]
    return self.make_update(float(np.mean(losses)), mask, epochs,
                            base_cycle)


class TestDenseMaskModels:
    """Models compaction cannot cut — a ``Sigmoid`` (0 -> 0.5) and a
    BatchNorm (an inactive filter's BN channel emits beta) — keep the
    masked full model, one client at a time, on every backend: bit for
    bit what every masked client computed before compaction."""

    @pytest.mark.parametrize("build", [_sigmoid_simulation,
                                       _alexnet_simulation],
                             ids=["sigmoid-mlp", "alexnet-bn"])
    def test_trains_masked_one_by_one(self, monkeypatch, tmp_path, build):
        def run(backend):
            sim = build()
            if backend is not None:
                sim.set_backend(backend, max_workers=2)
            try:
                history = sim.run(HeliosStrategy(HeliosConfig(
                    straggler_top_k=2, seed=0)), 2)
                return history, sim.server.get_global_weights()
            finally:
                sim.close()

        assert not compactable(build().clients[0].model)
        with monkeypatch.context() as patch:
            patch.setattr(FLClient, "local_train", dense_mask_local_train)
            reference = run(None)
        log = _RouteLog(monkeypatch, tmp_path / "routes.log")
        for backend in (None, "persistent"):
            history, weights = run(backend)
            assert history.records == reference[0].records, backend
            for name, value in reference[1].items():
                assert weights[name].tobytes() == value.tobytes(), name
        routes = [route for _, route in log.routes()]
        assert routes and set(routes) == {"classic"}
