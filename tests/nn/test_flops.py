"""Tests for the FLOP / memory estimator."""

import numpy as np
import pytest

from repro.nn import Sequential, estimate_model_cost, trace_shapes
from repro.nn.flops import TRAINING_FLOP_MULTIPLIER
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.models import build_lenet, build_model

from ..conftest import make_device, make_tiny_model


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def simple_cnn(rng):
    return Sequential([
        Conv2D(1, 4, 3, padding=1, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        MaxPool2D(2, name="pool1"),
        Flatten(name="flatten"),
        Dense(4 * 4 * 4, 6, rng=rng, name="fc1"),
        ReLU(name="relu2"),
        Dense(6, 3, rng=rng, name="out"),
    ], name="simple-cnn")


class TestTraceShapes:
    def test_records_every_leaf_layer(self, rng):
        model = simple_cnn(rng)
        records = trace_shapes(model, (1, 8, 8))
        assert len(records) == len(model.layers)

    def test_shapes_are_per_sample(self, rng):
        model = simple_cnn(rng)
        records = trace_shapes(model, (1, 8, 8))
        conv_record = records[0]
        assert conv_record[1] == (1, 8, 8)
        assert conv_record[2] == (4, 8, 8)

    def test_restores_forward_methods(self, rng):
        model = simple_cnn(rng)
        trace_shapes(model, (1, 8, 8))
        # The model must still work normally afterwards.
        out = model.forward(rng.normal(size=(2, 1, 8, 8)))
        assert out.shape == (2, 3)

    def test_restores_training_mode(self, rng):
        model = simple_cnn(rng)
        model.train()
        trace_shapes(model, (1, 8, 8))
        assert model.training


class TestFlopFormulas:
    def test_dense_flops(self, rng):
        model = Sequential([Dense(10, 5, rng=rng, name="d")])
        cost = estimate_model_cost(model, (10,))
        np.testing.assert_allclose(cost.inference_flops, 2 * 10 * 5)

    def test_conv_flops(self, rng):
        model = Sequential([Conv2D(2, 3, 3, padding=1, rng=rng, name="c")])
        cost = estimate_model_cost(model, (2, 4, 4))
        # out values = 3*4*4, macs per value = 2*3*3.
        expected = 2.0 * (3 * 4 * 4) * (2 * 3 * 3)
        np.testing.assert_allclose(cost.inference_flops, expected)

    def test_training_flops_multiplier(self, rng):
        model = Sequential([Dense(8, 4, rng=rng)])
        cost = estimate_model_cost(model, (8,))
        np.testing.assert_allclose(cost.training_flops,
                                   cost.inference_flops
                                   * TRAINING_FLOP_MULTIPLIER)

    def test_parameter_count_matches_model(self, rng):
        model = simple_cnn(rng)
        cost = estimate_model_cost(model, (1, 8, 8))
        assert cost.parameters == model.num_parameters()

    def test_memory_grows_with_batch(self, rng):
        model = simple_cnn(rng)
        cost = estimate_model_cost(model, (1, 8, 8))
        assert cost.memory_bytes(batch_size=16) > cost.memory_bytes(1)

    def test_training_gflops_scales_with_samples(self, rng):
        model = simple_cnn(rng)
        cost = estimate_model_cost(model, (1, 8, 8))
        np.testing.assert_allclose(cost.training_gflops(100),
                                   100 * cost.training_gflops(1))


class TestNeuronFractions:
    def test_uniform_fraction_reduces_flops(self, rng):
        model = make_tiny_model()
        full = estimate_model_cost(model, (1, 8, 8))
        fractions = {layer.name: 0.5 for layer in model.neuron_layers()}
        half = estimate_model_cost(model, (1, 8, 8),
                                   neuron_fractions=fractions)
        assert half.inference_flops < full.inference_flops
        assert half.parameters < full.parameters

    def test_fraction_one_equals_full(self, rng):
        model = make_tiny_model()
        full = estimate_model_cost(model, (1, 8, 8))
        ones = estimate_model_cost(
            model, (1, 8, 8),
            neuron_fractions={layer.name: 1.0
                              for layer in model.neuron_layers()})
        np.testing.assert_allclose(ones.inference_flops, full.inference_flops)

    def test_quadratic_scaling_of_middle_layers(self, rng):
        # Halving every layer's neurons roughly quarters the work of middle
        # layers (both inputs and outputs shrink).
        model = make_tiny_model()
        full = estimate_model_cost(model, (1, 8, 8))
        half = estimate_model_cost(
            model, (1, 8, 8),
            neuron_fractions={layer.name: 0.5
                              for layer in model.neuron_layers()})
        ratio = half.inference_flops / full.inference_flops
        assert 0.2 < ratio < 0.6

    def test_invalid_fraction_raises(self, rng):
        model = make_tiny_model()
        with pytest.raises(ValueError):
            estimate_model_cost(model, (1, 8, 8),
                                neuron_fractions={"fc1": 0.0})

    def test_lenet_cost_positive(self, rng):
        model = build_lenet(width_multiplier=0.25, rng=rng)
        cost = estimate_model_cost(model, (1, 28, 28))
        assert cost.training_flops > 0
        assert cost.memory_megabytes() > 0


class TestBilledBytesAreStoredBytes:
    """The cost model bills 4 bytes a value; the substrate stores and
    ships exactly that."""

    @pytest.mark.parametrize("name", ["lenet", "alexnet", "resnet", "mlp"])
    def test_parameter_bytes_equal_the_arrays(self, name, rng):
        shape = (3, 16, 16)
        model = build_model(name, shape, 4, width_multiplier=0.1, rng=rng)
        cost = estimate_model_cost(model, shape)
        assert cost.parameter_bytes == sum(param.data.nbytes
                                           for param in model.parameters())

    def test_a_weights_table_on_the_wire_is_the_billed_payload(self, rng):
        from repro.fl.codec import encode_message
        from repro.hardware.network import BYTES_PER_VALUE, CommunicationModel

        model = build_lenet(width_multiplier=0.25, rng=rng)
        frame = encode_message(("weights", [model.get_weights()]))
        assert frame.array_bytes == BYTES_PER_VALUE * model.num_parameters()
        # ... which is what a device is charged transfer time for.
        link = CommunicationModel(per_message_latency_s=0.0)
        device = make_device(network=8.0)      # 1e6 bytes a second
        assert link.transfer_seconds(device, model.num_parameters()) \
            == pytest.approx(frame.array_bytes / 1e6)
