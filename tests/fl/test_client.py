"""Tests for the FL client (spec/state split included)."""

import pickle

import numpy as np
import pytest

from repro.core import HeliosConfig, HeliosStrategy
from repro.experiments.common import (SCALES, ExperimentSetting,
                                      make_simulation_factory)
from repro.fl import ClientConfig, ClientSpec, FLClient
from repro.nn import SGD, ModelMask, SoftmaxCrossEntropy
from repro.nn.model import iter_leaf_layers
from repro.nn.models import build_model

from ..conftest import (FAST_DEVICE, SLOW_DEVICE, make_tiny_dataset,
                        make_tiny_model)


@pytest.fixture
def client():
    return FLClient(client_id=0, dataset=make_tiny_dataset(60, seed=0),
                    device=SLOW_DEVICE, model_factory=make_tiny_model,
                    config=ClientConfig(batch_size=20, learning_rate=0.2),
                    seed=0)


class TestConfig:
    def test_defaults_valid(self):
        config = ClientConfig()
        assert config.batch_size > 0

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            ClientConfig(batch_size=0)

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            ClientConfig(local_epochs=0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            ClientConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("momentum", [1.0, 1.5, -0.1])
    def test_invalid_momentum(self, momentum):
        with pytest.raises(ValueError, match=r"momentum must be in \[0, 1\)"):
            ClientConfig(momentum=momentum)

    def test_invalid_weight_decay(self):
        with pytest.raises(ValueError,
                           match="weight_decay must be non-negative"):
            ClientConfig(weight_decay=-0.5)


class TestLocalTraining:
    def test_empty_dataset_rejected(self):
        empty = make_tiny_dataset(5, seed=0).subset([])
        with pytest.raises(ValueError):
            FLClient(0, empty, SLOW_DEVICE, make_tiny_model)

    def test_update_contains_all_parameters(self, client):
        global_weights = make_tiny_model().get_weights()
        update = client.local_train(global_weights)
        assert set(update.weights) == set(global_weights)

    def test_training_changes_weights(self, client):
        global_weights = make_tiny_model().get_weights()
        update = client.local_train(global_weights)
        changed = any(not np.allclose(update.weights[name],
                                      global_weights[name])
                      for name in global_weights)
        assert changed

    def test_update_metadata(self, client):
        update = client.local_train(make_tiny_model().get_weights(),
                                    base_cycle=5)
        assert update.client_id == 0
        assert update.num_samples == 60
        assert update.base_cycle == 5
        assert update.local_epochs == 1
        assert np.isfinite(update.train_loss)

    def test_neuron_fraction_defaults_to_one(self, client):
        update = client.local_train(make_tiny_model().get_weights())
        assert update.neuron_fraction == 1.0

    def test_local_epochs_override(self, client):
        update = client.local_train(make_tiny_model().get_weights(),
                                    local_epochs=3)
        assert update.local_epochs == 3

    def test_invalid_epochs_override(self, client):
        with pytest.raises(ValueError):
            client.local_train(make_tiny_model().get_weights(),
                               local_epochs=0)

    def test_starts_from_global_weights(self, client):
        """Two cycles from the same global weights produce the same update."""
        global_weights = make_tiny_model().get_weights()
        first = client.local_train(global_weights)
        client.rng = np.random.default_rng(0 + 1000 * client.client_id)
        second = client.local_train(global_weights)
        for name in first.weights:
            np.testing.assert_allclose(first.weights[name],
                                       second.weights[name])


class TestMaskedTraining:
    def test_masked_neurons_keep_global_values(self, client):
        global_weights = make_tiny_model().get_weights()
        mask_arrays = {"fc1": np.zeros(16, dtype=bool),
                       "fc2": np.ones(8, dtype=bool),
                       "output": np.ones(4, dtype=bool)}
        mask_arrays["fc1"][:4] = True
        mask = ModelMask(mask_arrays)
        update = client.local_train(global_weights, mask=mask)
        # Rows of fc1/weight for masked-out neurons must be untouched.
        np.testing.assert_allclose(update.weights["fc1/weight"][4:],
                                   global_weights["fc1/weight"][4:])
        # At least one selected neuron must have changed.
        assert not np.allclose(update.weights["fc1/weight"][:4],
                               global_weights["fc1/weight"][:4])

    def test_update_records_mask(self, client):
        mask = ModelMask.random(make_tiny_model(),
                                {"fc1": 0.5, "fc2": 0.5, "output": 0.5},
                                np.random.default_rng(0))
        update = client.local_train(make_tiny_model().get_weights(),
                                    mask=mask)
        assert update.mask is not None
        assert update.neuron_fraction == pytest.approx(mask.active_fraction())

    def test_mask_cleared_after_training(self, client):
        mask = ModelMask.random(make_tiny_model(),
                                {"fc1": 0.25, "fc2": 0.25, "output": 0.25},
                                np.random.default_rng(0))
        client.local_train(make_tiny_model().get_weights(), mask=mask)
        assert client.model.active_neuron_fraction() == 1.0


class TestSpecStateSplit:
    """ClientSpec (picklable identity) vs. runtime state (model + RNG)."""

    def _spec(self, seed=0):
        return ClientSpec(client_id=2, dataset=make_tiny_dataset(40, seed=1),
                          device=SLOW_DEVICE, model_factory=make_tiny_model,
                          config=ClientConfig(batch_size=20), seed=seed)

    def test_spec_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            ClientSpec(client_id=0,
                       dataset=make_tiny_dataset(5, seed=0).subset([]),
                       device=SLOW_DEVICE, model_factory=make_tiny_model)

    def test_build_twice_is_bit_identical(self):
        spec = self._spec()
        first, second = spec.build(), spec.build()
        weights_a, weights_b = (first.model.get_weights(),
                                second.model.get_weights())
        for name in weights_a:
            np.testing.assert_array_equal(weights_a[name], weights_b[name])
        assert (first.rng.bit_generator.state
                == second.rng.bit_generator.state)

    def test_spec_round_trips_through_pickle(self):
        rebuilt = pickle.loads(pickle.dumps(self._spec())).build()
        reference = self._spec().build()
        update_a = rebuilt.local_train(make_tiny_model().get_weights())
        update_b = reference.local_train(make_tiny_model().get_weights())
        assert update_a.train_loss == update_b.train_loss

    def test_client_records_its_spec(self, client):
        spec = client.spec
        assert spec.client_id == client.client_id
        assert spec.device is client.device
        assert spec.client_type is FLClient

    def test_build_with_rng_state_resumes_stream(self, client):
        client.local_train(make_tiny_model().get_weights())
        resumed = client.spec.build(
            rng_state=client.rng.bit_generator.state)
        assert (resumed.rng.bit_generator.state
                == client.rng.bit_generator.state)

    def test_mutating_identity_replaces_spec(self, client):
        old_spec = client.spec
        client.device = FAST_DEVICE
        assert client.spec is not old_spec
        assert client.spec.device is FAST_DEVICE
        assert client.device is FAST_DEVICE
        assert old_spec.device is SLOW_DEVICE  # specs are immutable

    def test_get_set_state_round_trip(self, client):
        client.local_train(make_tiny_model().get_weights())
        state = client.get_state()
        fresh = client.spec.build()
        fresh.set_state(state)
        weights = client.model.get_weights()
        fresh_weights = fresh.model.get_weights()
        for name in weights:
            np.testing.assert_array_equal(weights[name],
                                          fresh_weights[name])
        assert (fresh.rng.bit_generator.state
                == client.rng.bit_generator.state)

    def test_subclass_round_trips_through_spec(self):
        class_spec = _CountingClient(
            client_id=0, dataset=make_tiny_dataset(40, seed=0),
            device=SLOW_DEVICE, model_factory=make_tiny_model).spec
        assert class_spec.client_type is _CountingClient
        assert isinstance(class_spec.build(), _CountingClient)


class _CountingClient(FLClient):
    """Subclass used to check that specs preserve the concrete type."""

    def local_train(self, *args, **kwargs):
        self.trainings = getattr(self, "trainings", 0) + 1
        return super().local_train(*args, **kwargs)


class TestEvaluation:
    def test_evaluate_with_explicit_weights(self, client):
        dataset = make_tiny_dataset(40, seed=9)
        accuracy = client.evaluate(dataset,
                                   weights=make_tiny_model().get_weights())
        assert 0.0 <= accuracy <= 1.0

    def test_repeated_local_training_learns(self, client):
        weights = make_tiny_model().get_weights()
        for _ in range(8):
            update = client.local_train(weights)
            weights = update.weights
        accuracy = client.evaluate(client.dataset, weights=weights)
        assert accuracy > 0.5


def held_arrays(layer):
    """``(attribute, array)`` of every array a leaf layer holds outside its
    parameters and buffers (a cache's tuple or list entries included)."""
    own = {id(value) for value in layer.buffers().values()}
    for name, value in vars(layer).items():
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            if isinstance(item, np.ndarray) and id(item) not in own:
                yield name, item


def assert_holds_no_batch(model):
    """No layer of ``model`` holds an array larger than its largest
    parameter: a finished step or prediction keeps no batch-sized cache."""
    for layer in iter_leaf_layers(model.layers):
        largest = max((param.data.size for param in layer.parameters()),
                      default=0)
        for name, array in held_arrays(layer):
            assert array.size <= largest, (layer.name, name, array.shape)


class TestCachesReleased:
    """``train_step`` and ``predict`` drop the per-batch caches (the conv
    patch buffer, pool winner masks, saved inputs and activations) before
    returning; BatchNorm running statistics are state and stay."""

    @pytest.mark.parametrize("name", ["lenet", "alexnet", "resnet"])
    def test_train_step_and_predict_keep_no_batch(self, name):
        rng = np.random.default_rng(0)
        model = build_model(name, (3, 16, 16), 4, width_multiplier=0.1,
                            rng=rng)
        images = rng.normal(size=(6, 3, 16, 16)).astype(np.float32)
        model.train_step(images, rng.integers(0, 4, 6),
                         SoftmaxCrossEntropy(),
                         SGD(model.parameters(), lr=0.1))
        assert_holds_no_batch(model)
        statistics = {key: value.copy()
                      for key, value in model.named_buffers().items()}
        assert statistics or name == "lenet"
        model.predict(images, batch_size=4)
        assert_holds_no_batch(model)
        for key, value in model.named_buffers().items():
            np.testing.assert_array_equal(value, statistics[key])

    def test_fig5_fleet_after_local_train_and_evaluate(self):
        setting = ExperimentSetting("mnist", "lenet", num_capable=2,
                                    num_stragglers=2, seed=0)
        factory, _ = make_simulation_factory(setting, SCALES["smoke"])
        with factory() as sim:
            sim.run(HeliosStrategy(HeliosConfig(straggler_top_k=2, seed=0)),
                    num_cycles=2, eval_every=1)
            for client in sim.clients:
                assert_holds_no_batch(client.model)
            sim.server.evaluate()
            assert_holds_no_batch(sim.server.global_model)
