"""The conv/pool kernels against the kernels they replaced.

The contract (module docstrings of ``repro.nn.layers.conv`` / ``pooling``):
``MaxPool2D`` outputs and gradient routing are *exactly* the im2col
reference's; ``Conv2D`` agrees with both of its predecessors — the im2col
kernel and the channel-major patch matrix — and ``AvgPool2D`` with its
im2col one to ``allclose(rtol=1e-10, atol=1e-12)`` (transposed GEMM
operands, a 25-term dot split into per-kernel-row partial dots, a
different window summation order) — in float64, so the convolutions are
built with ``as_float64``.  The ``assert_*_matches_reference`` helpers are
shared with the Hypothesis property in
``tests/property/test_conv_kernel_properties.py``.
"""

import copy

import numpy as np
import pytest

from repro.nn import ModelMask
from repro.nn.compact import Compaction
from repro.nn.layers import AvgPool2D, Conv2D, MaxPool2D
from repro.nn.model import Sequential

from .dtypes import as_float64
from .reference_kernels import (ReferenceAvgPool2D, ReferenceMaxPool2D,
                                use_reference_kernels)

RTOL, ATOL = 1e-10, 1e-12


def _references(layers):
    """Deep copies of ``layers`` on each reference conv kernel: the
    channel-major patch matrix, and the im2col kernel — which cannot
    reshape a zero-filter weight, so a model with one has the first only."""
    copies = []
    for channel_major in (True, False):
        if not channel_major and any(layer.out_channels == 0
                                     for layer in layers):
            continue
        reference = copy.deepcopy(layers)
        use_reference_kernels(reference, channel_major=channel_major)
        copies.append(reference)
    return copies


def _compact_conv(in_channels, out_channels, kernel, stride, padding,
                  use_bias, active, rng):
    """The compact sub-layer of a float64 ``Conv2D(in_channels,
    out_channels)`` whose mask keeps ``active`` filters (0: none)."""
    full = as_float64(Conv2D(in_channels, out_channels, kernel,
                             stride=stride, padding=padding,
                             use_bias=use_bias, rng=rng))
    keep = rng.permutation(out_channels) < active
    return Compaction(Sequential([full]),
                      ModelMask({full.name: keep})).model.layers[0]


def assert_conv_matches_reference(batch, in_channels, out_channels, size,
                                  kernel, stride, padding, mask=None,
                                  use_bias=True, seed=0, active=None):
    """Forward, input gradient, weight and bias gradients of one geometry
    against both reference kernels; ``active`` builds the compact layer
    that keeps that many of ``out_channels`` filters instead."""
    rng = np.random.default_rng(seed)
    if active is None:
        layer = as_float64(Conv2D(in_channels, out_channels, kernel,
                                  stride=stride, padding=padding,
                                  use_bias=use_bias, rng=rng))
    else:
        layer = _compact_conv(in_channels, out_channels, kernel, stride,
                              padding, use_bias, active, rng)
    if use_bias:
        layer.bias.data = rng.normal(size=layer.out_channels)
    layer.set_neuron_mask(mask)
    references = [copies[0] for copies in _references([layer])]
    inputs = rng.normal(size=(batch, in_channels) + tuple(size))

    outputs = layer.forward(inputs)
    assert outputs.shape == (batch,) + layer.output_shape(inputs.shape[1:])
    assert outputs.dtype == np.float64
    grad_output = rng.normal(size=outputs.shape)
    grad_input = layer.backward(grad_output)
    assert grad_input.shape == inputs.shape
    assert grad_input.dtype == np.float64
    for reference in references:
        np.testing.assert_allclose(outputs, reference.forward(inputs),
                                   rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(grad_input, reference.backward(grad_output),
                                   rtol=RTOL, atol=ATOL)
        for param, expected_param in zip(layer.parameters(),
                                         reference.parameters()):
            assert param.grad.shape == param.data.shape
            assert param.grad.dtype == np.float64
            np.testing.assert_allclose(param.grad, expected_param.grad,
                                       rtol=RTOL, atol=ATOL)
    if mask is not None:
        off = ~np.asarray(mask, dtype=bool)
        assert np.all(outputs[:, off] == 0.0)
        for param in layer.parameters():
            assert np.all(param.grad[off] == 0.0)


def assert_maxpool_matches_reference(inputs, kernel, stride=None, padding=0,
                                     seed=0):
    """Outputs and input gradients equal the reference bit for bit.

    The reference pads with zeros, so padded geometries are only comparable
    on strictly positive inputs.
    """
    layer = MaxPool2D(kernel, stride=stride, padding=padding)
    reference = ReferenceMaxPool2D(kernel, stride=stride, padding=padding)
    outputs = layer.forward(inputs)
    expected = reference.forward(inputs)
    assert outputs.shape == (inputs.shape[0],) + layer.output_shape(
        inputs.shape[1:])
    assert outputs.dtype == expected.dtype == inputs.dtype
    np.testing.assert_array_equal(outputs, expected)
    grad_output = np.random.default_rng(seed).normal(size=outputs.shape)
    grad_input = layer.backward(grad_output)
    assert grad_input.shape == inputs.shape
    np.testing.assert_array_equal(grad_input, reference.backward(grad_output))


def assert_avgpool_matches_reference(inputs, kernel, stride=None, padding=0,
                                     seed=0):
    layer = AvgPool2D(kernel, stride=stride, padding=padding)
    reference = ReferenceAvgPool2D(kernel, stride=stride, padding=padding)
    outputs = layer.forward(inputs)
    assert outputs.shape == (inputs.shape[0],) + layer.output_shape(
        inputs.shape[1:])
    np.testing.assert_allclose(outputs, reference.forward(inputs),
                               rtol=RTOL, atol=ATOL)
    grad_output = np.random.default_rng(seed).normal(size=outputs.shape)
    grad_input = layer.backward(grad_output)
    assert grad_input.shape == inputs.shape
    np.testing.assert_allclose(grad_input, reference.backward(grad_output),
                               rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------- #
# Conv2D
# ---------------------------------------------------------------------- #
CONV_GRID = [
    # (size, kernel, stride, padding)
    ((5, 5), 3, 1, 0),
    ((7, 6), 3, 1, 1),
    ((8, 8), 5, 1, 2),           # LeNet conv1
    ((9, 7), (3, 2), 1, (1, 0)),  # non-square kernel and padding
    ((8, 8), 3, 2, 1),           # ResNet down-sampling
    ((7, 10), 3, 2, 0),          # the stride does not divide the input
    ((10, 7), (2, 3), (3, 2), (0, 2)),
    ((6, 6), 1, 2, 0),           # ResNet shortcut
    ((4, 4), 4, 1, 0),           # one output position
]


@pytest.mark.parametrize("size,kernel,stride,padding", CONV_GRID)
@pytest.mark.parametrize("batch,in_channels,out_channels",
                         [(1, 1, 1), (3, 2, 4), (5, 4, 3)])
def test_conv_matches_reference(size, kernel, stride, padding, batch,
                                in_channels, out_channels):
    assert_conv_matches_reference(batch, in_channels, out_channels, size,
                                  kernel, stride, padding)


@pytest.mark.parametrize("size,kernel,stride,padding", CONV_GRID)
@pytest.mark.parametrize("active", [1, 0], ids=["one-filter", "no-filter"])
def test_compact_conv_matches_reference(size, kernel, stride, padding,
                                        active):
    """A straggler's compact layer keeps one filter, or none: the unit
    and the empty GEMM dimension of every product."""
    assert_conv_matches_reference(3, 2, 4, size, kernel, stride, padding,
                                  active=active)


@pytest.mark.parametrize("mask", [[True, False, True, True],
                                  [False, False, False, True],
                                  [False, False, False, False]])
@pytest.mark.parametrize("size,kernel,stride,padding", CONV_GRID[1::3])
def test_masked_conv_matches_reference(size, kernel, stride, padding, mask):
    assert_conv_matches_reference(2, 3, 4, size, kernel, stride, padding,
                                  mask=np.array(mask))


def test_conv_without_bias_matches_reference():
    assert_conv_matches_reference(2, 2, 3, (6, 6), 3, 1, 1, use_bias=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_outputs_and_gradients_are_float64(dtype):
    """On a float64 layer, for float32 and float64 inputs alike: results
    follow NumPy's promotion of input and parameters."""
    rng = np.random.default_rng(0)
    layer = as_float64(Conv2D(2, 3, 3, padding=1, rng=rng))
    inputs = rng.normal(size=(2, 2, 5, 4)).astype(dtype)
    outputs = layer.forward(inputs)
    assert outputs.shape == (2, 3, 5, 4) and outputs.dtype == np.float64
    grad_input = layer.backward(np.ones(outputs.shape, dtype=dtype))
    assert grad_input.shape == inputs.shape
    assert grad_input.dtype == np.float64
    assert layer.weight.grad.dtype == layer.bias.grad.dtype == np.float64


def test_conv_outputs_and_gradients_are_float32_as_built():
    rng = np.random.default_rng(0)
    layer = Conv2D(2, 3, 3, padding=1, rng=rng)
    inputs = rng.normal(size=(2, 2, 5, 4)).astype(np.float32)
    outputs = layer.forward(inputs)
    assert outputs.shape == (2, 3, 5, 4) and outputs.dtype == np.float32
    grad_input = layer.backward(np.ones_like(outputs))
    assert grad_input.dtype == np.float32
    assert layer.weight.grad.dtype == layer.bias.grad.dtype == np.float32


def test_conv_accepts_non_contiguous_inputs_and_gradients():
    """A conv output is a view; the next conv must take it as it is."""
    rng = np.random.default_rng(1)
    first = as_float64(Conv2D(1, 2, 3, padding=1, rng=rng))
    second = as_float64(Conv2D(2, 3, 3, stride=2, rng=rng))
    inputs = rng.normal(size=(3, 1, 7, 7))
    hidden = first.forward(inputs)
    assert not hidden.flags.c_contiguous
    outputs = second.forward(hidden)
    grad_output = rng.normal(size=outputs.shape)[..., ::-1]
    assert not grad_output.flags.c_contiguous
    grad_input = first.backward(second.backward(grad_output))
    for reference in _references([first, second]):
        np.testing.assert_allclose(
            outputs, reference[1].forward(reference[0].forward(inputs)),
            rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            grad_input,
            reference[0].backward(reference[1].backward(grad_output)),
            rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------- #
# pooling
# ---------------------------------------------------------------------- #
POOL_GRID = [
    # (size, kernel, stride)
    ((4, 4), 2, None),
    ((5, 5), 2, None),           # ragged edge dropped
    ((7, 6), 3, 2),              # overlapping windows
    ((6, 7), (2, 3), (1, 2)),    # non-square, overlapping rows
    ((8, 5), 3, 1),              # stride 1: every window overlaps
    ((7, 7), 2, 3),              # gaps between windows
    ((3, 3), 3, None),           # one window
    ((6, 6), 1, None),           # identity
]


def _pool_inputs(kind, shape, rng):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "relu":          # windows full of equal zeros
        return np.maximum(rng.normal(size=shape), 0.0)
    if kind == "quantised":     # ties between non-zero members
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "zeros":
        return np.zeros(shape)
    return np.full(shape, -1.5)  # "equal"


@pytest.mark.parametrize("kind", ["normal", "relu", "quantised", "zeros",
                                  "equal"])
@pytest.mark.parametrize("size,kernel,stride", POOL_GRID)
def test_maxpool_equals_reference_exactly(size, kernel, stride, kind):
    rng = np.random.default_rng(3)
    for batch, channels in ((1, 1), (3, 2), (5, 4)):
        inputs = _pool_inputs(kind, (batch, channels) + size, rng)
        assert_maxpool_matches_reference(inputs, kernel, stride)


@pytest.mark.parametrize("size,kernel,stride,padding", [
    ((4, 4), 3, 2, 1), ((5, 6), (2, 3), None, (1, 1)), ((7, 7), 5, 2, 2)])
def test_padded_maxpool_equals_reference_on_positive_inputs(size, kernel,
                                                            stride, padding):
    rng = np.random.default_rng(4)
    inputs = rng.uniform(0.5, 2.0, size=(2, 3) + size)
    assert_maxpool_matches_reference(inputs, kernel, stride, padding)


AVG_POOL_CASES = [
    (size, kernel, stride, padding)
    for size, kernel, stride in POOL_GRID + [((9, 9), 4, 2)]
    for padding in (0, 1, 2)
    # A pooling window must overlap the input (validated at construction).
    if padding <= min(np.broadcast_to(kernel, 2)) // 2]


@pytest.mark.parametrize("size,kernel,stride,padding", AVG_POOL_CASES)
def test_avgpool_matches_reference(size, kernel, stride, padding):
    rng = np.random.default_rng(5)
    for batch, channels in ((1, 1), (4, 3)):
        inputs = rng.normal(size=(batch, channels) + size)
        assert_avgpool_matches_reference(inputs, kernel, stride, padding)


def test_maxpool_nan_in_a_window_yields_nan_output():
    """Which member receives that window's gradient is unspecified."""
    rng = np.random.default_rng(6)
    inputs = rng.normal(size=(2, 2, 6, 6))
    inputs[0, 1, 2, 3] = np.nan          # window (1, 1) of image (0, 1)
    inputs[1, 0, 5, 0] = np.nan          # window (2, 0), its last member
    outputs = MaxPool2D(2).forward(inputs)
    expected = ReferenceMaxPool2D(2).forward(inputs)
    assert np.isnan(outputs[0, 1, 1, 1]) and np.isnan(outputs[1, 0, 2, 0])
    assert np.isnan(outputs).sum() == 2
    np.testing.assert_array_equal(outputs, expected)   # NaN == NaN here


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pool", [MaxPool2D, AvgPool2D])
def test_pool_shapes_and_dtype(pool, dtype):
    """Pools are parameter-free: they keep the input's dtype (so float64
    activations stay float64), padded or not."""
    inputs = np.random.default_rng(7).normal(size=(2, 3, 7, 5)).astype(dtype)
    for padding in (0, 1):
        layer = pool(3, stride=2, padding=padding)
        outputs = layer.forward(inputs)
        assert outputs.shape == (2,) + layer.output_shape((3, 7, 5))
        assert outputs.dtype == dtype
        grad_input = layer.backward(np.ones_like(outputs))
        assert grad_input.shape == inputs.shape
        assert grad_input.dtype == dtype


def test_pools_take_a_conv_output_view():
    rng = np.random.default_rng(8)
    hidden = as_float64(Conv2D(1, 3, 3, padding=1, rng=rng)).forward(
        rng.normal(size=(2, 1, 6, 6)))
    assert not hidden.flags.c_contiguous
    assert_maxpool_matches_reference(np.maximum(hidden, 0.0), 2)
    assert_avgpool_matches_reference(hidden, 3, 2, 1)
