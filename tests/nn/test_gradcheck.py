"""Numerical gradient checks for every differentiable layer.

Each test compares the analytic backward pass against central finite
differences on a tiny input.  These checks are the backbone of trust in the
NumPy substrate: if they pass, the federated training dynamics built on top
are faithful.

The checks run on float64 layers (``as_float64``): a central difference
with ``EPS = 1e-5`` needs the digits.  ``TestFloat32Gradients`` repeats one
check per layer type in float32, the dtype the substrate trains in, with
a step and a tolerance float32 can resolve.
"""

import numpy as np
import pytest

from repro.nn.layers import (AvgPool2D, BatchNorm1D, BatchNorm2D, Conv2D,
                             Dense, GlobalAvgPool2D, LeakyReLU, MaxPool2D,
                             ReLU, ResidualBlock, Sigmoid, Softmax, Tanh)

from .dtypes import as_float64

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
    as_float64(layer)
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
        layer = as_float64(BatchNorm1D(4))
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


# ---------------------------------------------------------------------- #
# float32: the dtype the substrate trains in
# ---------------------------------------------------------------------- #
#: Central-difference step and tolerance of the float32 checks.  Rounding
#: noise of a float32 forward pass is ~1e-6 of an O(1-10) objective, i.e.
#: ~1e-4 after division by the step; the truncation error of the step is
#: ~EPS32^2.  Both sit two orders below the tolerance.
EPS32 = 2.0 ** -6
TOL32 = 2e-2


def _objective(layer, inputs, grad_output):
    return float(np.sum(layer.forward(inputs) * grad_output,
                        dtype=np.float64))


def _numerical_grad32(layer, inputs, grad_output, values):
    """Central differences over ``values`` (the inputs or one parameter),
    each divided by the step float32 actually took."""
    numeric = np.zeros(values.shape, dtype=np.float64)
    flat, flat_numeric = values.reshape(-1), numeric.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + np.float32(EPS32)
        high, plus = float(flat[index]), _objective(layer, inputs,
                                                    grad_output)
        flat[index] = original - np.float32(EPS32)
        low, minus = float(flat[index]), _objective(layer, inputs,
                                                    grad_output)
        flat[index] = original
        flat_numeric[index] = (plus - minus) / (high - low)
    return numeric


def _away_from_zero(values):
    """No element within two steps of ReLU's kink."""
    return np.sign(values) * (np.abs(values) + 4 * EPS32)


def _distinct(shape, rng):
    """Elements at least 0.1 apart: no max-pool winner changes in a step."""
    return (rng.permutation(int(np.prod(shape))) * 0.1).reshape(shape) - 2.0


FLOAT32_CASES = {
    "dense": lambda rng: (Dense(5, 4, rng=rng), rng.normal(size=(3, 5))),
    "dense-masked": lambda rng: (
        Dense(4, 6, rng=rng), rng.normal(size=(2, 4)),
        [True, False, True, True, False, True]),
    "conv": lambda rng: (Conv2D(2, 3, 3, stride=2, padding=1, rng=rng),
                         rng.normal(size=(2, 2, 5, 5))),
    "conv-masked": lambda rng: (Conv2D(1, 4, 3, padding=1, rng=rng),
                                rng.normal(size=(1, 1, 4, 4)),
                                [True, False, True, False]),
    "maxpool": lambda rng: (MaxPool2D(3, stride=2, padding=1),
                            _distinct((2, 2, 5, 6), rng)),
    "avgpool": lambda rng: (AvgPool2D(3, stride=2, padding=1),
                            rng.normal(size=(2, 2, 5, 6))),
    "global-avgpool": lambda rng: (GlobalAvgPool2D(),
                                   rng.normal(size=(2, 3, 4, 4))),
    "relu": lambda rng: (ReLU(), _away_from_zero(rng.normal(size=(3, 6)))),
    "leaky-relu": lambda rng: (LeakyReLU(0.1),
                               _away_from_zero(rng.normal(size=(3, 6)))),
    "sigmoid": lambda rng: (Sigmoid(), rng.normal(size=(3, 6))),
    "tanh": lambda rng: (Tanh(), rng.normal(size=(3, 6))),
    "softmax": lambda rng: (Softmax(), rng.normal(size=(3, 5))),
    "batchnorm1d-train": lambda rng: (BatchNorm1D(4),
                                      rng.normal(size=(6, 4))),
    "batchnorm2d-eval": lambda rng: (BatchNorm2D(3),
                                     rng.normal(size=(2, 3, 3, 3))),
}
# No ResidualBlock case: it is a composite of the leaves above, and its
# inner ReLUs put a kink within one float32-sized step of most inputs.


class TestFloat32Gradients:
    @pytest.mark.parametrize("case", sorted(FLOAT32_CASES))
    def test_float32_gradients(self, case, rng):
        layer, inputs, *mask = FLOAT32_CASES[case](rng)
        inputs = inputs.astype(np.float32)
        if mask:
            layer.set_neuron_mask(np.array(mask[0]))
        if case.endswith("-eval"):
            layer.eval()     # frozen batch statistics
        outputs = layer.forward(inputs)
        grad_output = np.random.default_rng(0).normal(
            size=outputs.shape).astype(np.float32)
        layer.zero_grad()
        layer.forward(inputs)
        analytic = layer.backward(grad_output)
        assert outputs.dtype == analytic.dtype == np.float32
        np.testing.assert_allclose(
            analytic, _numerical_grad32(layer, inputs, grad_output, inputs),
            atol=TOL32, rtol=TOL32)
        if case == "batchnorm1d-train":
            return    # running statistics move with every forward
        for param in layer.parameters():
            numeric = _numerical_grad32(layer, inputs, grad_output,
                                        param.data)
            layer.zero_grad()
            layer.forward(inputs)
            layer.backward(grad_output)
            assert param.grad.dtype == np.float32
            np.testing.assert_allclose(param.grad, numeric, atol=TOL32,
                                       rtol=TOL32)
