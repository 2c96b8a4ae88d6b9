"""The client axis of ``nn``: a stacked twin computes, per client, the bits
the plain layer computes.

Every layer that supports a leading client axis is run as a twin over
``C`` clients (each slice its own parameters and inputs; a masked client
its own compact sub-layer, :mod:`repro.nn.compact`) and slice
``j`` of every result — output, input gradient, parameter gradients — must
equal the plain layer's on client ``j``'s slice byte for byte.  Float32 as
built, and float64 on ``as_float64`` copies.
"""

import numpy as np
import pytest

from repro.nn import SGD, ModelMask, MomentumSGD, SoftmaxCrossEntropy
from repro.nn.compact import Compaction
from repro.nn.layers import (AvgPool2D, Conv2D, Dense, Flatten,
                             GlobalAvgPool2D, LeakyReLU, MaxPool2D, ReLU,
                             Sigmoid, Softmax, Tanh)
from repro.nn.model import Sequential
from repro.nn.models import build_lenet

from .dtypes import as_float64

CLIENTS = 3


#: name -> (layer factory, one client's input shape)
LAYERS = {
    "dense": (lambda: Dense(6, 5), (4, 6)),
    "dense-no-bias": (lambda: Dense(6, 5, use_bias=False), (1, 6)),
    "conv-padded": (lambda: Conv2D(2, 3, 3, padding=1), (4, 2, 7, 7)),
    "conv-strided": (lambda: Conv2D(2, 4, (3, 2), stride=2), (2, 2, 9, 8)),
    "maxpool-overlapping": (lambda: MaxPool2D(3, stride=2, padding=1),
                            (2, 3, 7, 7)),
    "avgpool": (lambda: AvgPool2D(2), (2, 3, 6, 6)),
    "globalavgpool": (GlobalAvgPool2D, (3, 4, 5, 5)),
    "relu": (ReLU, (4, 5)),
    "leakyrelu": (lambda: LeakyReLU(0.1), (4, 5)),
    "sigmoid": (Sigmoid, (4, 5)),
    "tanh": (Tanh, (4, 5)),
    "softmax": (Softmax, (4, 5)),
    "flatten": (Flatten, (4, 2, 3, 3)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_twin_slices_equal_the_plain_layer(name, masked, dtype):
    build, shape = LAYERS[name]
    rng = np.random.default_rng(7)
    plains = [build() for _ in range(CLIENTS)]
    for plain in plains:
        for param in plain.parameters():
            param.data = rng.normal(size=param.data.shape).astype(dtype)
            param.grad = np.zeros_like(param.data)
    if masked and plains[0].num_neurons:
        # A masked client trains its compact layer: equal neuron counts,
        # a different choice of neurons per client.
        count = -(-plains[0].num_neurons // 2)
        plains = [Compaction(Sequential([plain]), ModelMask({
            plain.name: rng.permutation(plain.num_neurons) < count
        })).model.layers[0] for plain in plains]
    twin = plains[0].stacked(CLIENTS)
    for twin_param, *client_params in zip(
            twin.parameters(), *(plain.parameters() for plain in plains)):
        twin_param.data = np.stack([param.data for param in client_params])
        twin_param.grad = np.zeros_like(twin_param.data)
    inputs = rng.normal(size=(CLIENTS,) + shape).astype(dtype)
    outputs = twin.forward(inputs)
    grad_out = rng.normal(size=outputs.shape).astype(dtype)
    grad_in = twin.backward(grad_out)
    for index, plain in enumerate(plains):
        expected = plain.forward(inputs[index])
        assert outputs[index].dtype == expected.dtype == dtype
        assert outputs[index].tobytes() == np.ascontiguousarray(
            expected).tobytes()
        expected_grad = plain.backward(grad_out[index])
        assert grad_in[index].tobytes() == np.ascontiguousarray(
            expected_grad).tobytes()
        for twin_param, param in zip(twin.parameters(), plain.parameters()):
            assert twin_param.grad[index].tobytes() == param.grad.tobytes()


def test_twin_shares_nothing_mutable_with_its_layer():
    layer = Dense(4, 3, rng=np.random.default_rng(0))
    layer.set_neuron_mask(np.array([True, False, True]))
    layer.forward(np.ones((2, 4), np.float32))
    twin = layer.stacked(2)
    assert twin.client_shape == (2,) and layer.client_shape == ()
    assert twin.neuron_mask is None
    assert twin.weight is not layer.weight
    assert twin.weight.data.shape == (2, 3, 4)
    assert twin.weight.data.dtype == layer.weight.data.dtype
    assert twin.weight.neuron_axis == 1 and layer.weight.neuron_axis == 0
    with pytest.raises(RuntimeError, match="before forward"):
        twin.backward(np.ones((2, 2, 3), np.float32))


@pytest.mark.parametrize("build,shape", [
    (lambda: Dense(4, 3), (5, 4)),
    (lambda: Conv2D(1, 2, 3), (1, 1, 5, 5)),
    (lambda: MaxPool2D(2), (1, 1, 4, 4)),
    (lambda: GlobalAvgPool2D(), (1, 1, 4, 4)),
], ids=["dense", "conv", "maxpool", "globalavgpool"])
def test_twin_keeps_the_rank_check(build, shape):
    """A twin wants one more leading axis than its plain layer — and a
    plain layer still refuses the twin's rank."""
    plain = build()
    twin = plain.stacked(2)
    twin.forward(np.zeros((2,) + shape, np.float32))
    with pytest.raises(ValueError):
        twin.forward(np.zeros(shape, np.float32))
    with pytest.raises(ValueError):
        plain.forward(np.zeros((2,) + shape, np.float32))


def test_twin_refuses_a_mask():
    """A twin's clients train compact sub-networks, all active."""
    layer = Dense(4, 3)
    layer.set_neuron_mask(np.ones(3, bool))
    twin = layer.stacked(2)
    for mask in (np.ones(3, bool), np.ones((2, 3), bool)):
        with pytest.raises(ValueError, match="stacked twin"):
            twin.set_neuron_mask(mask)


def test_loss_returns_per_client_values():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(CLIENTS, 5, 4)).astype(np.float32)
    targets = rng.integers(0, 4, size=(CLIENTS, 5))
    stacked = SoftmaxCrossEntropy(client_shape=(CLIENTS,))
    losses = stacked.forward(logits, targets)
    grads = stacked.backward()
    assert losses.shape == (CLIENTS,)
    for index in range(CLIENTS):
        plain = SoftmaxCrossEntropy()
        assert float(losses[index]) == plain.forward(logits[index],
                                                     targets[index])
        assert grads[index].tobytes() == plain.backward().tobytes()
    with pytest.raises(ValueError, match="out of range"):
        stacked.forward(logits, np.full((CLIENTS, 5), 4))
    with pytest.raises(ValueError):
        SoftmaxCrossEntropy().forward(logits, targets)


@pytest.mark.parametrize("momentum", [0.0, 0.9], ids=["sgd", "momentum"])
@pytest.mark.parametrize("widen", [False, True], ids=["float32", "float64"])
def test_model_twin_steps_like_each_client(momentum, widen):
    """``Sequential.stacked`` + ``train_step`` + the stock optimizers: two
    steps of a LeNet twin equal two steps of each client alone."""
    def build():
        model = build_lenet(input_shape=(1, 12, 12), num_classes=4,
                            width_multiplier=0.5,
                            rng=np.random.default_rng(5))
        return as_float64(model) if widen else model

    def optimizer(model):
        if momentum:
            return MomentumSGD(model.parameters(), lr=0.05,
                               momentum=momentum, weight_decay=0.01)
        return SGD(model.parameters(), lr=0.05, weight_decay=0.01)

    rng = np.random.default_rng(6)
    dtype = np.float64 if widen else np.float32
    images = rng.normal(size=(2, CLIENTS, 6, 1, 12, 12)).astype(dtype)
    labels = rng.integers(0, 4, size=(2, CLIENTS, 6))
    snapshot = build().get_weights()
    twin = build().stacked(CLIENTS)
    assert isinstance(twin, Sequential)
    twin.set_weights(snapshot)
    twin_optimizer = optimizer(twin)
    twin_loss = SoftmaxCrossEntropy(client_shape=(CLIENTS,))
    twin_losses = [twin.train_step(images[step], labels[step], twin_loss,
                                   twin_optimizer) for step in range(2)]
    for index in range(CLIENTS):
        model = build()
        model.set_weights(snapshot)
        model_optimizer = optimizer(model)
        loss = SoftmaxCrossEntropy()
        for step in range(2):
            value = model.train_step(images[step, index],
                                     labels[step, index], loss,
                                     model_optimizer)
            assert float(twin_losses[step][index]) == value
        for name, param in model.named_parameters().items():
            twin_param = twin.named_parameters()[name]
            assert twin_param.data.dtype == dtype
            assert twin_param.data[index].tobytes() == param.data.tobytes()


def test_set_weights_on_a_twin_checks_like_the_plain_model():
    model = build_lenet(input_shape=(1, 12, 12), num_classes=4,
                        width_multiplier=0.5)
    twin = model.stacked(2)
    weights = model.get_weights()
    twin.set_weights(weights)
    for name, value in weights.items():
        stacked = twin.named_parameters()[name].data
        assert stacked.shape == (2,) + value.shape
        assert stacked[1].tobytes() == value.tobytes()
    weights["lenet/fc1/weight"] = weights["lenet/fc1/weight"][:, 1:]
    with pytest.raises(ValueError, match="shape mismatch"):
        twin.set_weights(weights)
    weights.pop("lenet/fc1/weight")
    with pytest.raises(KeyError):
        twin.set_weights(weights)
