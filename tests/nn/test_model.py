"""Tests for the Sequential model container."""

import numpy as np
import pytest

from repro.nn import SGD, MomentumSGD, Sequential, SoftmaxCrossEntropy
from repro.nn.layers import BatchNorm1D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.models import build_model

from ..conftest import make_tiny_dataset, make_tiny_model
from .test_gradcheck import numerical_input_grad


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestForwardBackward:
    def test_forward_shape(self, rng):
        model = make_tiny_model()
        out = model.forward(rng.normal(size=(5, 1, 8, 8)))
        assert out.shape == (5, 4)

    def test_callable(self, rng):
        model = make_tiny_model()
        inputs = rng.normal(size=(2, 1, 8, 8))
        np.testing.assert_array_equal(model(inputs), model.forward(inputs))

    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_train_step_decreases_loss(self):
        dataset = make_tiny_dataset(60, seed=0)
        model = make_tiny_model()
        loss_fn = SoftmaxCrossEntropy()
        optimizer = SGD(model.parameters(), lr=0.2)
        first = model.train_step(dataset.images, dataset.labels, loss_fn,
                                 optimizer)
        for _ in range(20):
            last = model.train_step(dataset.images, dataset.labels, loss_fn,
                                    optimizer)
        assert last < first

    def test_zero_grad(self, rng):
        model = make_tiny_model()
        loss_fn = SoftmaxCrossEntropy()
        logits = model.forward(rng.normal(size=(4, 1, 8, 8)))
        loss_fn.forward(logits, np.zeros(4, dtype=int))
        model.backward(loss_fn.backward())
        assert any(np.any(p.grad != 0) for p in model.parameters())
        model.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())


class TestBackwardParameters:
    """``train_step`` never computes the gradient w.r.t. the model input;
    ``Sequential.backward`` still returns it."""

    #: (model, input shape, width) — tiny, but every layer kind the four
    #: factories use is in the walk.
    MODELS = [("lenet", (1, 12, 12), 0.3), ("alexnet", (3, 8, 8), 0.05),
              ("resnet", (3, 8, 8), 0.05), ("mlp", (1, 8, 8), 0.1)]

    @staticmethod
    def _build(name, shape, width):
        model = build_model(name, shape, 4, width_multiplier=width,
                            rng=np.random.default_rng(11))
        optimizer = MomentumSGD(model.parameters(), lr=0.05, momentum=0.9,
                                weight_decay=1e-3)
        return model, SoftmaxCrossEntropy(), optimizer

    @pytest.mark.parametrize("name,shape,width", MODELS)
    def test_train_step_equals_the_full_backward_bytewise(self, name, shape,
                                                          width, rng):
        stepped, step_loss_fn, step_optimizer = self._build(name, shape,
                                                            width)
        spelled, loss_fn, optimizer = self._build(name, shape, width)
        for _ in range(3):
            inputs = rng.normal(size=(6,) + shape)
            targets = rng.integers(0, 4, 6)
            step_loss = stepped.train_step(inputs, targets, step_loss_fn,
                                           step_optimizer)
            spelled.zero_grad()
            loss = loss_fn.forward(spelled.forward(inputs), targets)
            grad_input = spelled.backward(loss_fn.backward())
            optimizer.step()
            assert grad_input.shape == inputs.shape
            assert step_loss == loss
        expected = spelled.get_weights()      # parameters and buffers
        actual = stepped.get_weights()
        assert list(actual) == list(expected)
        for key, value in expected.items():
            assert actual[key].tobytes() == value.tobytes(), key
            assert actual[key].flags.c_contiguous, key

    def test_backward_returns_the_input_gradient(self, rng):
        """Central differences through a whole conv model."""
        model = build_model("lenet", (1, 12, 12), 3, width_multiplier=0.3,
                            rng=rng)
        inputs = rng.normal(size=(2, 1, 12, 12))
        grad_output = rng.normal(size=(2, 3))
        model.forward(inputs)
        analytic = model.backward(grad_output)
        assert analytic.shape == inputs.shape
        np.testing.assert_allclose(
            analytic, numerical_input_grad(model, inputs, grad_output),
            rtol=1e-4, atol=1e-6)

    def test_layer_default_is_backward(self, rng):
        """A layer that does not override it runs its full backward."""
        inputs = rng.normal(size=(5, 3))
        grad_output = rng.normal(size=(5, 3))
        full, default = BatchNorm1D(3), BatchNorm1D(3)
        full.forward(inputs)
        default.forward(inputs)
        full.backward(grad_output)
        assert default.backward_parameters(grad_output) is None
        for ours, theirs in zip(default.parameters(), full.parameters()):
            np.testing.assert_array_equal(ours.grad, theirs.grad)

    def test_parameter_free_prefix_is_skipped(self, rng):
        """Layers before the first parameter owner never run backward."""
        pool = MaxPool2D(2)
        model = Sequential([pool, Flatten(), Dense(4, 3, rng=rng)])
        loss_fn = SoftmaxCrossEntropy()
        pool.backward = None        # calling it would raise TypeError
        model.train_step(rng.normal(size=(2, 1, 4, 4)), np.array([0, 2]),
                         loss_fn, SGD(model.parameters(), lr=0.1))
        assert np.any(model.layers[2].weight.grad != 0.0)

    def test_model_without_parameters_is_a_noop(self, rng):
        Sequential([Flatten(), ReLU()]).backward_parameters(
            rng.normal(size=(2, 4)))


class TestParameters:
    def test_parameter_count_matches_layers(self):
        model = make_tiny_model()
        expected = 64 * 16 + 16 + 16 * 8 + 8 + 8 * 4 + 4
        assert model.num_parameters() == expected

    def test_named_parameters_unique(self):
        model = make_tiny_model()
        names = list(model.named_parameters())
        assert len(names) == len(set(names))

    def test_named_parameters_disambiguates_duplicates(self, rng):
        model = Sequential([
            Dense(4, 3, rng=rng, name="same"),
            Dense(3, 2, rng=rng, name="same"),
        ])
        names = list(model.named_parameters())
        assert len(names) == 4
        assert len(set(names)) == 4


class TestWeightsRoundtrip:
    def test_get_set_roundtrip(self, rng):
        model_a = make_tiny_model(seed=1)
        model_b = make_tiny_model(seed=2)
        inputs = rng.normal(size=(3, 1, 8, 8))
        assert not np.allclose(model_a.forward(inputs),
                               model_b.forward(inputs))
        model_b.set_weights(model_a.get_weights())
        np.testing.assert_allclose(model_a.forward(inputs),
                                   model_b.forward(inputs))

    def test_get_weights_is_a_copy(self):
        model = make_tiny_model()
        weights = model.get_weights()
        name = next(iter(weights))
        weights[name][:] = 123.0
        assert not np.allclose(model.get_weights()[name], 123.0)

    def test_set_weights_missing_key_raises(self):
        model = make_tiny_model()
        weights = model.get_weights()
        weights.pop(next(iter(weights)))
        with pytest.raises(KeyError):
            model.set_weights(weights)

    def test_set_weights_shape_mismatch_raises(self):
        model = make_tiny_model()
        weights = model.get_weights()
        name = next(iter(weights))
        weights[name] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.set_weights(weights)

    def test_get_gradients_shapes(self, rng):
        model = make_tiny_model()
        grads = model.get_gradients()
        weights = model.get_weights()
        assert set(grads) == set(weights)
        for name in grads:
            assert grads[name].shape == weights[name].shape


class TestNeuronStructure:
    def test_neuron_layers_are_dense_layers(self):
        model = make_tiny_model()
        assert [layer.name for layer in model.neuron_layers()] == [
            "fc1", "fc2", "output"]

    def test_neuron_counts(self):
        model = make_tiny_model()
        assert model.neuron_counts() == [16, 8, 4]
        assert model.total_neurons() == 28

    def test_set_and_clear_masks(self):
        model = make_tiny_model()
        masks = {"fc1": np.ones(16, dtype=bool),
                 "fc2": np.zeros(8, dtype=bool)}
        masks["fc2"][:4] = True
        model.set_neuron_masks(masks)
        assert model.active_neuron_fraction() < 1.0
        model.clear_neuron_masks()
        assert model.active_neuron_fraction() == 1.0

    def test_set_masks_unknown_layer_raises(self):
        model = make_tiny_model()
        with pytest.raises(KeyError):
            model.set_neuron_masks({"nope": np.ones(3, dtype=bool)})

    def test_active_fraction_weighted_by_layer_size(self):
        model = make_tiny_model()
        model.set_neuron_masks({"fc1": np.zeros(16, dtype=bool)})
        # fc1 (16 of 28 neurons) fully masked -> fraction = 12/28.
        np.testing.assert_allclose(model.active_neuron_fraction(), 12 / 28)


class TestInference:
    def test_predict_shape_and_range(self, rng):
        model = make_tiny_model()
        predictions = model.predict(rng.normal(size=(10, 1, 8, 8)))
        assert predictions.shape == (10,)
        assert predictions.min() >= 0 and predictions.max() < 4

    def test_predict_restores_training_mode(self, rng):
        model = make_tiny_model()
        model.train()
        model.predict(rng.normal(size=(2, 1, 8, 8)))
        assert model.training

    def test_accuracy_perfect_on_memorized_data(self):
        dataset = make_tiny_dataset(40, seed=3)
        model = make_tiny_model()
        loss_fn = SoftmaxCrossEntropy()
        optimizer = SGD(model.parameters(), lr=0.3)
        for _ in range(60):
            model.train_step(dataset.images, dataset.labels, loss_fn,
                             optimizer)
        assert model.evaluate_accuracy(dataset.images, dataset.labels) > 0.9

    def test_summary_mentions_layers(self):
        summary = make_tiny_model().summary()
        assert "fc1" in summary
        assert "total parameters" in summary

    def test_clone_structure_copies_weights(self, rng):
        model = make_tiny_model(seed=5)
        clone = model.clone_structure(lambda: make_tiny_model(seed=9))
        inputs = rng.normal(size=(2, 1, 8, 8))
        np.testing.assert_allclose(model.forward(inputs),
                                   clone.forward(inputs))
