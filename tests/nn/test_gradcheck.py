"""Numerical gradient checks for every differentiable layer.

Each test compares the analytic backward pass against central finite
differences on a tiny input.  These checks are the backbone of trust in the
NumPy substrate: if they pass, the federated training dynamics built on top
are faithful.
"""

import numpy as np
import pytest

from repro.nn.layers import (AvgPool2D, BatchNorm1D, BatchNorm2D, Conv2D,
                             Dense, GlobalAvgPool2D, LeakyReLU, MaxPool2D,
                             ReLU, ResidualBlock, Sigmoid, Softmax, Tanh)

EPS = 1e-5
TOL = 1e-4


def numerical_input_grad(layer, inputs, grad_output):
    """Central-difference gradient of sum(output * grad_output) w.r.t. inputs."""
    numeric = np.zeros_like(inputs)
    flat_inputs = inputs.reshape(-1)
    flat_numeric = numeric.reshape(-1)
    for index in range(flat_inputs.size):
        original = flat_inputs[index]
        flat_inputs[index] = original + EPS
        plus = np.sum(layer.forward(inputs) * grad_output)
        flat_inputs[index] = original - EPS
        minus = np.sum(layer.forward(inputs) * grad_output)
        flat_inputs[index] = original
        flat_numeric[index] = (plus - minus) / (2 * EPS)
    return numeric


def numerical_param_grad(layer, param, inputs, grad_output):
    """Central-difference gradient w.r.t. one parameter tensor."""
    numeric = np.zeros_like(param.data)
    flat_data = param.data.reshape(-1)
    flat_numeric = numeric.reshape(-1)
    for index in range(flat_data.size):
        original = flat_data[index]
        flat_data[index] = original + EPS
        plus = np.sum(layer.forward(inputs) * grad_output)
        flat_data[index] = original - EPS
        minus = np.sum(layer.forward(inputs) * grad_output)
        flat_data[index] = original
        flat_numeric[index] = (plus - minus) / (2 * EPS)
    return numeric


def check_layer(layer, inputs, check_params=True, tol=TOL):
    rng = np.random.default_rng(0)
    outputs = layer.forward(inputs)
    grad_output = rng.normal(size=outputs.shape)

    layer.zero_grad()
    layer.forward(inputs)
    analytic_input_grad = layer.backward(grad_output)
    numeric_input_grad = numerical_input_grad(layer, inputs, grad_output)
    np.testing.assert_allclose(analytic_input_grad, numeric_input_grad,
                               atol=tol, rtol=tol)

    if check_params:
        for param in layer.parameters():
            numeric = numerical_param_grad(layer, param, inputs, grad_output)
            layer.zero_grad()
            layer.forward(inputs)
            layer.backward(grad_output)
            np.testing.assert_allclose(param.grad, numeric, atol=tol,
                                       rtol=tol)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestDenseGradients:
    def test_dense_gradients(self, rng):
        layer = Dense(5, 4, rng=rng)
        check_layer(layer, rng.normal(size=(3, 5)))

    def test_dense_no_bias_gradients(self, rng):
        layer = Dense(5, 4, use_bias=False, rng=rng)
        check_layer(layer, rng.normal(size=(3, 5)))

    def test_dense_masked_gradients(self, rng):
        layer = Dense(4, 6, rng=rng)
        layer.set_neuron_mask(np.array([True, False, True, True, False, True]))
        check_layer(layer, rng.normal(size=(2, 4)))


class TestConvGradients:
    def test_conv_gradients(self, rng):
        layer = Conv2D(2, 3, 3, padding=1, rng=rng)
        check_layer(layer, rng.normal(size=(2, 2, 5, 5)))

    def test_conv_strided_gradients(self, rng):
        layer = Conv2D(1, 2, 3, stride=2, padding=1, rng=rng)
        check_layer(layer, rng.normal(size=(2, 1, 6, 6)))

    def test_conv_no_padding_gradients(self, rng):
        layer = Conv2D(1, 2, 3, padding=0, rng=rng)
        check_layer(layer, rng.normal(size=(1, 1, 5, 5)))

    def test_conv_masked_gradients(self, rng):
        layer = Conv2D(1, 4, 3, padding=1, rng=rng)
        layer.set_neuron_mask(np.array([True, False, True, False]))
        check_layer(layer, rng.normal(size=(1, 1, 4, 4)))


    def test_conv_non_square_kernel_gradients(self, rng):
        layer = Conv2D(2, 2, (2, 3), stride=(1, 2), padding=(1, 0), rng=rng)
        check_layer(layer, rng.normal(size=(2, 2, 4, 5)))

    def test_conv_masked_strided_gradients(self, rng):
        layer = Conv2D(2, 3, 3, stride=2, padding=1, rng=rng)
        layer.set_neuron_mask(np.array([False, True, True]))
        check_layer(layer, rng.normal(size=(2, 2, 5, 5)))


class TestPoolingGradients:
    def test_maxpool_gradients(self, rng):
        layer = MaxPool2D(2)
        check_layer(layer, rng.normal(size=(2, 2, 4, 4)), check_params=False)

    def test_avgpool_gradients(self, rng):
        layer = AvgPool2D(2)
        check_layer(layer, rng.normal(size=(2, 2, 4, 4)), check_params=False)

    @pytest.mark.parametrize("pool", [MaxPool2D, AvgPool2D])
    def test_overlapping_pool_gradients(self, pool, rng):
        check_layer(pool(3, stride=2), rng.normal(size=(2, 2, 7, 6)),
                    check_params=False)

    @pytest.mark.parametrize("pool", [MaxPool2D, AvgPool2D])
    def test_padded_pool_gradients(self, pool, rng):
        check_layer(pool(3, stride=2, padding=1),
                    rng.normal(size=(2, 2, 5, 6)), check_params=False)

    @pytest.mark.parametrize("pool", [MaxPool2D, AvgPool2D])
    def test_pool_drops_the_ragged_edge(self, pool, rng):
        """5x5 under a 2x2 window: the last row and column get no gradient."""
        layer = pool(2)
        inputs = rng.normal(size=(1, 2, 5, 5))
        check_layer(layer, inputs, check_params=False)
        layer.forward(inputs)
        grad = layer.backward(np.ones((1, 2, 2, 2)))
        assert np.all(grad[:, :, 4, :] == 0) and np.all(grad[:, :, :, 4] == 0)

    def test_global_avgpool_gradients(self, rng):
        layer = GlobalAvgPool2D()
        check_layer(layer, rng.normal(size=(2, 3, 4, 4)), check_params=False)


class TestActivationGradients:
    def test_relu_gradients(self, rng):
        check_layer(ReLU(), rng.normal(size=(3, 6)) + 0.05,
                    check_params=False)

    def test_leaky_relu_gradients(self, rng):
        check_layer(LeakyReLU(0.1), rng.normal(size=(3, 6)) + 0.05,
                    check_params=False)

    def test_sigmoid_gradients(self, rng):
        check_layer(Sigmoid(), rng.normal(size=(3, 6)), check_params=False)

    def test_tanh_gradients(self, rng):
        check_layer(Tanh(), rng.normal(size=(3, 6)), check_params=False)

    def test_softmax_gradients(self, rng):
        check_layer(Softmax(), rng.normal(size=(3, 5)), check_params=False)


class TestNormalizationGradients:
    def test_batchnorm1d_eval_gradients(self, rng):
        layer = BatchNorm1D(5)
        layer.eval()
        check_layer(layer, rng.normal(size=(4, 5)))

    def test_batchnorm1d_train_input_gradients(self, rng):
        layer = BatchNorm1D(4)
        layer.train()
        inputs = rng.normal(size=(6, 4))
        outputs = layer.forward(inputs)
        grad_output = rng.normal(size=outputs.shape)
        layer.zero_grad()
        layer.forward(inputs)
        analytic = layer.backward(grad_output)
        # In training mode the batch statistics change with the input, so
        # the numerical check must re-run training-mode forwards.
        numeric = numerical_input_grad(layer, inputs, grad_output)
        np.testing.assert_allclose(analytic, numeric, atol=5e-4, rtol=5e-4)

    def test_batchnorm2d_eval_gradients(self, rng):
        layer = BatchNorm2D(3)
        layer.eval()
        check_layer(layer, rng.normal(size=(2, 3, 3, 3)))


class TestResidualGradients:
    def test_residual_identity_shortcut(self, rng):
        layer = ResidualBlock(2, 2, stride=1, rng=rng)
        layer.eval()  # freeze batch statistics for a deterministic check
        check_layer(layer, rng.normal(size=(2, 2, 4, 4)), check_params=False,
                    tol=5e-4)

    def test_residual_projection_shortcut(self, rng):
        layer = ResidualBlock(2, 4, stride=2, rng=rng)
        layer.eval()
        check_layer(layer, rng.normal(size=(1, 2, 4, 4)), check_params=False,
                    tol=5e-4)
