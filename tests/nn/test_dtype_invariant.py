"""Dtype is an invariant of the substrate, not an accident of promotion.

A model as built is float32 and a float32 batch keeps every array float32:
each leaf layer's ``forward`` / ``backward`` result, the loss gradient,
parameters, gradients, batch-norm buffers and optimizer state — through two
optimization steps, the full input-gradient ``backward``, a cost-model
trace and a weights round trip, in training and in evaluation mode.  The
same walk over a model widened by ``as_float64`` stays float64, which is
the proof that no layer, loss or optimizer names a dtype.
"""

import warnings

import numpy as np
import pytest

from repro.nn import (SoftmaxCrossEntropy, estimate_model_cost,
                      get_optimizer)
from repro.nn.layers import BatchNorm1D, BatchNorm2D, Conv2D, Dense, ReLU
from repro.nn.model import iter_leaf_layers
from repro.nn.models import build_model

from .dtypes import as_float64

SHAPES = {"mlp": (1, 8, 8), "lenet": (1, 28, 28), "alexnet": (3, 16, 16),
          "resnet": (3, 16, 16)}
WIDTHS = {"mlp": 0.5, "lenet": 0.25, "alexnet": 0.06, "resnet": 0.05}


def _record_layer_outputs(model, seen):
    """Append ``(layer.method, dtype)`` for every leaf forward/backward."""
    for layer in iter_leaf_layers(model.layers):
        for method in ("forward", "backward"):
            def wrapped(array, original=getattr(layer, method),
                        tag=f"{layer.name}.{method}"):
                result = original(array)
                seen.append((tag, result.dtype))
                return result
            setattr(layer, method, wrapped)


def _state_arrays(model, optimizer):
    """Every array a training step leaves behind, by name."""
    arrays = {}
    for name, param in model.named_parameters().items():
        arrays[f"{name}.data"], arrays[f"{name}.grad"] = param.data, param.grad
    arrays.update(model.named_buffers())
    for attribute, table in vars(optimizer).items():
        if isinstance(table, dict):
            for index, value in enumerate(table.values()):
                arrays[f"optimizer.{attribute}[{index}]"] = value
    return arrays


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("optimizer_name", ["sgd", "momentum", "adam"])
@pytest.mark.parametrize("model_name", sorted(SHAPES))
def test_every_array_keeps_the_models_dtype(model_name, optimizer_name,
                                            mode, dtype):
    rng = np.random.default_rng(0)
    shape = SHAPES[model_name]
    model = build_model(model_name, shape, 4,
                        width_multiplier=WIDTHS[model_name], rng=rng)
    if dtype is np.float64:
        as_float64(model)
    # A NumPy scalar learning rate must not widen ``lr * grad``.
    optimizer = get_optimizer(optimizer_name, model.parameters(),
                              lr=np.float64(0.01))
    loss_fn = SoftmaxCrossEntropy()
    inputs = rng.normal(size=(6,) + shape).astype(dtype)
    targets = np.arange(6) % 4
    seen = []
    _record_layer_outputs(model, seen)
    getattr(model, mode)()

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(2):
            assert np.isfinite(model.train_step(inputs, targets, loss_fn,
                                                optimizer))
        # The full backward (input gradient included), the cost model's
        # trace and a weights round trip (``set_buffer``).
        loss_fn.forward(model.forward(inputs), targets)
        loss_grad = loss_fn.backward()
        input_grad = model.backward(loss_grad)
        estimate_model_cost(model, shape)
        weights = model.get_weights()
        model.set_weights(weights)

    assert loss_grad.dtype == input_grad.dtype == dtype
    leaves = list(iter_leaf_layers(model.layers))
    assert {tag for tag, _ in seen} >= {f"{layer.name}.forward"
                                        for layer in leaves}
    assert [entry for entry in seen if entry[1] != dtype] == []
    arrays = _state_arrays(model, optimizer)
    if optimizer_name != "sgd":
        assert any(name.startswith("optimizer.") for name in arrays)
    assert {name: value.dtype for name, value in arrays.items()
            if value.dtype != dtype} == {}
    for name, value in weights.items():
        assert value.dtype == dtype, name
        assert value.flags.c_contiguous, name


@pytest.mark.parametrize("build,input_shape", [
    (lambda rng: Dense(5, 4, rng=rng), (3, 5)),
    (lambda rng: Conv2D(2, 4, 3, stride=2, padding=1, rng=rng), (3, 2, 5, 5)),
    (lambda rng: BatchNorm1D(4), (6, 4)),
    (lambda rng: BatchNorm2D(4), (2, 4, 3, 3)),
], ids=["dense", "conv", "batchnorm1d", "batchnorm2d"])
def test_masked_neurons_are_exactly_zero_in_float32(build, input_shape):
    rng = np.random.default_rng(1)
    layer = build(rng)
    for param in layer.parameters():    # non-trivial biases and shifts
        param.data += rng.normal(size=param.shape).astype(np.float32)
    mask = np.array([True, False, True, False])
    layer.set_neuron_mask(mask)
    outputs = layer.forward(rng.normal(size=input_shape).astype(np.float32))
    assert outputs.dtype == np.float32
    assert np.all(outputs[:, ~mask] == 0.0) and np.all(outputs[:, mask] != 0.0)
    layer.backward(rng.normal(size=outputs.shape).astype(np.float32))
    for param in layer.parameters():
        assert param.grad.dtype == np.float32
        assert np.all(param.grad[~mask] == 0.0)
        assert np.all(param.grad[mask] != 0.0)


def test_relu_of_infinities_nan_and_negatives():
    """``inputs * (inputs > 0)`` made NaN of -inf (with a RuntimeWarning)
    and -0.0 of every negative input; float32 overflows early enough for
    an infinite pre-activation to be a real input."""
    layer = ReLU()
    inputs = np.array([-np.inf, -1.0, 0.0, 2.0, np.nan], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outputs = layer.forward(inputs)
        grads = layer.backward(np.ones(5, dtype=np.float32))
    np.testing.assert_array_equal(outputs, [0.0, 0.0, 0.0, 2.0, np.nan])
    assert outputs.dtype == np.float32
    assert not np.signbit(outputs[:3]).any()
    np.testing.assert_array_equal(grads, [0.0, 0.0, 0.0, 1.0, 0.0])
