"""Behavioural tests for the layer zoo (shapes, masking, modes, errors)."""

import numpy as np
import pytest

from repro.nn import SGD
from repro.nn.layers import (AvgPool2D, BatchNorm1D, BatchNorm2D, Conv2D,
                             Dense, Dropout, Flatten, GlobalAvgPool2D,
                             MaxPool2D, ReLU, ResidualBlock, Sigmoid,
                             Softmax, Tanh)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestDense:
    def test_output_shape(self, rng):
        layer = Dense(10, 7, rng=rng)
        assert layer.forward(rng.normal(size=(4, 10))).shape == (4, 7)

    def test_num_neurons(self, rng):
        assert Dense(10, 7, rng=rng).num_neurons == 7

    def test_bias_disabled(self, rng):
        layer = Dense(3, 2, use_bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_rejects_bad_input_dim(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(4, 5)))

    def test_rejects_non_2d_input(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(4, 3, 1)))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_mask_zeroes_outputs(self, rng):
        layer = Dense(4, 3, rng=rng)
        mask = np.array([True, False, True])
        layer.set_neuron_mask(mask)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert np.all(out[:, 1] == 0.0)
        assert np.any(out[:, 0] != 0.0)

    def test_mask_blocks_gradient(self, rng):
        layer = Dense(4, 3, rng=rng)
        layer.set_neuron_mask(np.array([True, False, True]))
        layer.forward(rng.normal(size=(5, 4)))
        layer.backward(np.ones((5, 3)))
        assert np.all(layer.weight.grad[1] == 0.0)
        assert np.any(layer.weight.grad[0] != 0.0)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(3, 2, rng=rng).backward(np.ones((1, 2)))

    def test_wrong_mask_size_raises(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.set_neuron_mask(np.array([True, False]))


class TestConv2D:
    def test_output_shape_padded(self, rng):
        layer = Conv2D(3, 8, 3, padding=1, rng=rng)
        assert layer.forward(rng.normal(size=(2, 3, 8, 8))).shape == (2, 8, 8, 8)

    def test_output_shape_strided(self, rng):
        layer = Conv2D(1, 4, 3, stride=2, padding=1, rng=rng)
        assert layer.forward(rng.normal(size=(2, 1, 8, 8))).shape == (2, 4, 4, 4)

    def test_output_shape_helper_matches_forward(self, rng):
        layer = Conv2D(2, 5, 5, stride=2, padding=2, rng=rng)
        out = layer.forward(rng.normal(size=(1, 2, 9, 9)))
        assert out.shape[1:] == layer.output_shape((2, 9, 9))

    def test_num_neurons_is_filters(self, rng):
        assert Conv2D(3, 12, 3, rng=rng).num_neurons == 12

    def test_rejects_wrong_channels(self, rng):
        layer = Conv2D(3, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(1, 2, 8, 8)))

    def test_rejects_non_4d(self, rng):
        layer = Conv2D(3, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(3, 8, 8)))

    def test_mask_zeroes_filter_maps(self, rng):
        layer = Conv2D(1, 3, 3, padding=1, rng=rng)
        layer.set_neuron_mask(np.array([False, True, True]))
        out = layer.forward(rng.normal(size=(2, 1, 5, 5)))
        assert np.all(out[:, 0] == 0.0)
        assert np.any(out[:, 1] != 0.0)

    def test_matches_manual_convolution(self, rng):
        # Single 2x2 kernel, no padding: compare against a hand computation.
        layer = Conv2D(1, 1, 2, padding=0, use_bias=False, rng=rng)
        kernel = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.weight.data = kernel
        image = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = layer.forward(image)
        expected_00 = 0 * 1 + 1 * 2 + 3 * 3 + 4 * 4
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == expected_00


    def test_masked_filter_gets_exactly_zero_gradients(self, rng):
        layer = Conv2D(2, 3, 3, stride=2, padding=1, rng=rng)
        layer.bias.data = rng.normal(size=3)
        layer.set_neuron_mask(np.array([True, False, True]))
        out = layer.forward(rng.normal(size=(2, 2, 5, 5)))
        assert np.all(out[:, 1] == 0.0)
        layer.backward(rng.normal(size=out.shape))
        assert np.all(layer.weight.grad[1] == 0.0)
        assert layer.bias.grad[1] == 0.0
        assert np.all(layer.weight.grad[[0, 2]] != 0.0)

    def test_backward_twice_accumulates(self, rng):
        layer = Conv2D(1, 2, 3, padding=1, rng=rng)
        grad_output = rng.normal(size=(2, 2, 4, 4))
        layer.forward(rng.normal(size=(2, 1, 4, 4)))
        layer.backward(grad_output)
        once = [param.grad.copy() for param in layer.parameters()]
        layer.backward_parameters(grad_output)
        for param, first in zip(layer.parameters(), once):
            np.testing.assert_array_equal(param.grad, first + first)

    def test_weights_stay_c_contiguous_after_training(self, rng):
        """The wire codec ships contiguous arrays out of band."""
        layer = Conv2D(1, 2, 3, padding=1, rng=rng)
        out = layer.forward(rng.normal(size=(2, 1, 4, 4)))
        layer.backward(np.ones_like(out))
        SGD(layer.parameters(), lr=0.1).step()
        assert all(param.data.flags.c_contiguous
                   and param.grad.flags.c_contiguous
                   for param in layer.parameters())


class TestWindowGeometry:
    """Geometry is validated at construction, where the mistake is."""

    @pytest.mark.parametrize("build,argument", [
        (lambda: Conv2D(1, 2, 3, stride=0), "stride"),
        (lambda: Conv2D(1, 2, 0), "kernel_size"),
        (lambda: Conv2D(1, 2, 3, padding=-1), "padding"),
        (lambda: MaxPool2D(2, stride=0), "stride"),
        (lambda: MaxPool2D(0), "kernel_size"),
        (lambda: MaxPool2D(2, padding=2), "padding"),
    ])
    def test_invalid_geometry_raises_at_construction(self, build, argument):
        with pytest.raises(ValueError, match=argument) as error:
            build()
        assert ("Conv2D" in str(error.value)
                or "MaxPool2D" in str(error.value))

    def test_avgpool_shares_the_validation(self):
        with pytest.raises(ValueError, match="AvgPool2D.*padding"):
            AvgPool2D((2, 5), padding=(1, 3))
        AvgPool2D((2, 5), padding=(1, 2))

    def test_non_positive_output_size_raises(self, rng):
        with pytest.raises(ValueError, match="non-positive output size"):
            Conv2D(1, 2, 5, rng=rng).forward(rng.normal(size=(1, 1, 4, 4)))
        with pytest.raises(ValueError, match="non-positive output size"):
            MaxPool2D(3).forward(rng.normal(size=(1, 1, 2, 2)))

    @pytest.mark.parametrize("layer,grad_shape", [
        (lambda rng: Conv2D(1, 2, 3, rng=rng), (1, 2, 2, 2)),
        (lambda rng: MaxPool2D(2), (1, 1, 2, 2)),
        (lambda rng: AvgPool2D(2), (1, 1, 2, 2)),
    ])
    def test_backward_before_forward_raises(self, layer, grad_shape, rng):
        with pytest.raises(RuntimeError, match="backward called before"):
            layer(rng).backward(np.ones(grad_shape))


class TestPooling:
    def test_maxpool_padding_never_wins(self):
        """Regression: zero padding used to beat negative inputs and swallow
        their gradient."""
        layer = MaxPool2D(3, stride=2, padding=1)
        out = layer.forward(np.full((1, 1, 4, 4), -1.0))
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), -1.0))
        grad_output = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        grad_input = layer.backward(grad_output)
        assert grad_input.shape == (1, 1, 4, 4)
        assert np.all(np.isfinite(grad_input))
        assert grad_input.sum() == grad_output.sum()

    def test_avgpool_counts_the_zero_padding(self):
        out = AvgPool2D(2, stride=2, padding=1).forward(np.ones((1, 1, 2, 2)))
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 0.25))

    def test_maxpool_ties_route_to_the_first_member(self):
        layer = MaxPool2D(2)
        layer.forward(np.zeros((1, 1, 2, 4)))
        grad = layer.backward(np.array([[[[5.0, 7.0]]]]))
        np.testing.assert_array_equal(
            grad, [[[[5.0, 0.0, 7.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]])

    def test_maxpool_selects_maximum(self):
        image = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = MaxPool2D(2).forward(image)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0

    def test_avgpool_averages(self):
        image = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = AvgPool2D(2).forward(image)
        assert out[0, 0, 0, 0] == 2.5

    def test_global_avgpool_shape(self, rng):
        out = GlobalAvgPool2D().forward(rng.normal(size=(3, 5, 4, 4)))
        assert out.shape == (3, 5)

    def test_maxpool_backward_routes_to_argmax(self):
        image = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer = MaxPool2D(2)
        layer.forward(image)
        grad = layer.backward(np.array([[[[10.0]]]]))
        expected = np.array([[[[0.0, 0.0], [0.0, 10.0]]]])
        np.testing.assert_array_equal(grad, expected)

    def test_pool_rejects_non_4d(self, rng):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(rng.normal(size=(4, 4)))


class TestActivations:
    def test_relu_clamps_negatives(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_sigmoid_range(self, rng):
        out = Sigmoid().forward(rng.normal(size=(10,)) * 10)
        assert np.all((out > 0) & (out < 1))

    def test_sigmoid_saturation_is_stable(self):
        out = Sigmoid().forward(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()

    def test_tanh_range(self, rng):
        out = Tanh().forward(rng.normal(size=(10,)) * 10)
        assert np.all(np.abs(out) <= 1.0)

    def test_softmax_sums_to_one(self, rng):
        out = Softmax().forward(rng.normal(size=(4, 7)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4))

    def test_activation_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones(3))


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        layer = BatchNorm1D(6)
        out = layer.forward(rng.normal(loc=5.0, scale=3.0, size=(200, 6)))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_update(self, rng):
        layer = BatchNorm1D(3, momentum=0.0)
        batch = rng.normal(loc=2.0, size=(50, 3))
        layer.forward(batch)
        np.testing.assert_allclose(layer.running_mean, batch.mean(axis=0))

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm1D(3)
        for _ in range(20):
            layer.forward(rng.normal(loc=1.0, size=(64, 3)))
        layer.eval()
        out = layer.forward(np.full((4, 3), 1.0))
        # inputs equal to the running mean normalize to roughly beta (=0).
        assert np.all(np.abs(out) < 0.5)

    def test_2d_variant_shape(self, rng):
        layer = BatchNorm2D(4)
        out = layer.forward(rng.normal(size=(2, 4, 3, 3)))
        assert out.shape == (2, 4, 3, 3)

    def test_num_neurons(self):
        assert BatchNorm2D(9).num_neurons == 9

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            BatchNorm1D(4, momentum=1.5)


class TestReshapeLayers:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        inputs = rng.normal(size=(3, 2, 4, 4))
        out = layer.forward(inputs)
        assert out.shape == (3, 32)
        back = layer.backward(out)
        assert back.shape == inputs.shape

    def test_dropout_eval_is_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        inputs = rng.normal(size=(5, 5))
        np.testing.assert_array_equal(layer.forward(inputs), inputs)

    def test_dropout_train_zeroes_fraction(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        layer.train()
        out = layer.forward(np.ones((200, 200)))
        zero_fraction = np.mean(out == 0.0)
        assert 0.4 < zero_fraction < 0.6

    def test_dropout_preserves_expectation(self):
        layer = Dropout(0.3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((300, 300)))
        assert abs(out.mean() - 1.0) < 0.05

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestResidualBlock:
    def test_identity_shortcut_shape(self, rng):
        block = ResidualBlock(4, 4, stride=1, rng=rng)
        out = block.forward(rng.normal(size=(2, 4, 6, 6)))
        assert out.shape == (2, 4, 6, 6)

    def test_projection_shortcut_shape(self, rng):
        block = ResidualBlock(4, 8, stride=2, rng=rng)
        out = block.forward(rng.normal(size=(2, 4, 6, 6)))
        assert out.shape == (2, 8, 3, 3)

    def test_collects_sublayer_parameters(self, rng):
        block = ResidualBlock(2, 4, stride=2, rng=rng)
        names = {param.name for param in block.parameters()}
        assert any("shortcut" in name for name in names)
        assert len(block.parameters()) > 4

    def test_train_eval_propagates(self, rng):
        block = ResidualBlock(2, 2, rng=rng)
        block.eval()
        assert not block.bn1.training
        block.train()
        assert block.bn1.training
