"""2-D convolution as one GEMM over a channel-major patch matrix.

Data layout is ``(batch, channels, height, width)`` throughout, matching the
conventional CNN layout the paper's models (LeNet/AlexNet/ResNet) use.

Patch matrix
------------
``forward`` unfolds the input into ``cols`` of shape
``(channels * kh * kw, batch * out_h * out_w)``: row ``(c, y, x)`` holds,
for every sample and output position, the input value kernel offset
``(y, x)`` of channel ``c`` sees.  The rows are in the order of the
flattened ``weight[o]``, each row is one contiguous ``(batch, out_h,
out_w)`` block, and a patch value is copied exactly once: one zero-filled
padded buffer, then one strided-slice copy per kernel offset straight into
its final rows.  The layer is then three GEMMs::

    out_mat   = weight_mat @ cols          # (out_c, B * oh * ow)
    weight.grad += (cols @ grad_mat.T).T   # (out_c, C * kh * kw)
    grad_cols = weight_mat.T @ grad_mat    # (C * kh * kw, B * oh * ow)

with bias and neuron mask applied in place to the *rows* of ``out_mat`` (a
masked filter is one row of ``weight_mat`` and one row of the output; a
compact sub-network, :mod:`repro.nn.compact`, drops the row instead, and
the ``C * kh * kw`` columns of every inactive input channel with it).  The
output is returned as a ``(batch, out_c, out_h, out_w)`` view of
``out_mat`` — not C-contiguous; every layer downstream takes views.  The
fold of ``grad_cols`` back to image space adds one contiguous row block per
kernel offset into a zeroed padded buffer, offsets in ``(y, x)`` order.
``backward_parameters`` stops after the second GEMM: a training step never
reads the input gradient of the first layer that owns parameters.  The
weight gradient is spelled with ``cols`` on the left for every shape: the
product has ``C * kh * kw`` rows instead of ``out_c``, and a GEMM with a
handful of output rows is the slow shape (measured on the LeNet, AlexNet
and ResNet layers — ``BENCH_substrate.json`` ``nn_kernels``).

Numerics
--------
The arithmetic is that of the textbook position-major ``(B * oh * ow,
C * kh * kw)`` patch matrix this replaced (kept as the test-only reference
in ``tests/nn/reference_kernels.py``), but the GEMM operands are transposed,
so BLAS blocks the sums differently and results agree with the reference to
``allclose(rtol=1e-10)``, not bit for bit.  Masked filters produce exactly
zero activations and receive exactly zero weight and bias gradients.
No dtype is named here: outputs and gradients follow NumPy's promotion of
the input and the parameters, float32 when both are float32.

Nothing is cached across calls: ``forward`` keeps this call's ``cols`` for
the matching ``backward`` and the next ``forward`` replaces it.

On a stacked twin (see :mod:`repro.nn.layers.base`) every array above
gains a leading client axis and the three products become batched
``np.matmul``s over it — per client the same BLAS call on the same strides,
so bit-identical to the plain layer.  Geometry is indexed from the right
throughout, and the window helpers below take any leading axes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..initializers import get_initializer
from ..parameter import Parameter
from .base import Layer

__all__ = ["Conv2D"]


def _pair(value) -> Tuple[int, int]:
    """Normalize an int or 2-tuple into a 2-tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected length-2 tuple, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _window_geometry(layer: str, kernel_size, stride, padding,
                     pooling: bool = False
                     ) -> Tuple[Tuple[int, int], Tuple[int, int],
                                Tuple[int, int]]:
    """Validated ``(kernel, stride, padding)`` pairs of a sliding window.

    A pooling window must overlap the input (``padding <= kernel // 2``);
    one that lies wholly in the padding has no members to pool.
    """
    kernel, stride, padding = _pair(kernel_size), _pair(stride), _pair(padding)
    if min(kernel) < 1:
        raise ValueError(f"{layer}: kernel_size must be >= 1, got {kernel}")
    if min(stride) < 1:
        raise ValueError(f"{layer}: stride must be >= 1, got {stride}")
    if min(padding) < 0:
        raise ValueError(f"{layer}: padding must be >= 0, got {padding}")
    if pooling and any(pad > size // 2 for pad, size in zip(padding, kernel)):
        raise ValueError(
            f"{layer}: padding must be <= kernel_size // 2, got "
            f"padding={padding} for kernel_size={kernel}")
    return kernel, stride, padding


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: input={size}, kernel={kernel}, "
            f"stride={stride}, pad={pad}")
    return out


def _window_output(height: int, width: int, kernel: Tuple[int, int],
                   stride: Tuple[int, int],
                   pad: Tuple[int, int]) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a window sliding over a ``height x width`` map."""
    return (conv_output_size(height, kernel[0], stride[0], pad[0]),
            conv_output_size(width, kernel[1], stride[1], pad[1]))


def _padded(inputs: np.ndarray, pad: Tuple[int, int],
            fill: float = 0.0) -> np.ndarray:
    """``inputs`` with ``fill`` borders of ``pad`` rows/columns.

    The input itself when there is nothing to pad — callers only read it.
    """
    ph, pw = pad
    if ph == 0 and pw == 0:
        return inputs
    height, width = inputs.shape[-2:]
    padded = np.full(inputs.shape[:-2] + (height + 2 * ph, width + 2 * pw),
                     fill, dtype=inputs.dtype)
    padded[..., ph:ph + height, pw:pw + width] = inputs
    return padded


def _window_views(padded: np.ndarray, kernel: Tuple[int, int],
                  stride: Tuple[int, int], out_h: int,
                  out_w: int) -> List[np.ndarray]:
    """One ``(..., out_h, out_w)`` view of ``padded`` per kernel offset.

    View ``y * kw + x`` holds member ``(y, x)`` of every window, so the
    list enumerates each window's members in row-major ``(y, x)`` order.
    The two spatial axes of ``padded`` are its last.
    """
    kh, kw = kernel
    sh, sw = stride
    return [padded[..., y:y + sh * out_h:sh, x:x + sw * out_w:sw]
            for y in range(kh) for x in range(kw)]


class Conv2D(Layer):
    """2-D convolution layer with neuron (filter) masking support.

    The *neurons* of a convolution layer are its output filters; Helios'
    soft-training removes whole filters (masks them, in a model that
    cannot be cut), the structured unit the paper shrinks.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, use_bias: bool = True,
                 weight_init: str = "he_normal",
                 rng: Optional[np.random.Generator] = None,
                 name: str = "") -> None:
        super().__init__(name=name or "conv2d")
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        self.kernel_size, self.stride, self.padding = _window_geometry(
            f"Conv2D {self.name!r}", kernel_size, stride, padding)
        rng = rng if rng is not None else np.random.default_rng()
        init = get_initializer(weight_init)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.use_bias = use_bias
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init((out_channels, in_channels, kh, kw), rng),
            name=f"{self.name}/weight", neuron_axis=0)
        self.bias: Optional[Parameter] = None
        if use_bias:
            self.bias = Parameter(np.zeros(out_channels),
                                  name=f"{self.name}/bias", neuron_axis=0)
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    # ------------------------------------------------------------------ #
    @property
    def num_neurons(self) -> int:
        return self.out_channels

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Spatial output shape ``(channels, height, width)`` for one sample."""
        _, height, width = input_shape
        return (self.out_channels,) + _window_output(
            height, width, self.kernel_size, self.stride, self.padding)

    # ------------------------------------------------------------------ #
    def _weight_mat(self) -> np.ndarray:
        """``weight`` as ``(..., out_c, C * kh * kw)``."""
        kh, kw = self.kernel_size
        return self.weight.data.reshape(
            self.client_shape + (self.out_channels,
                                 self.in_channels * kh * kw))

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        lead = self.client_shape
        if inputs.ndim != 4 + len(lead):
            raise ValueError(
                f"Conv2D expects {4 + len(lead)}-D input (batch, channels, "
                f"h, w); got shape {inputs.shape}")
        if inputs.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2D {self.name!r} expects {self.in_channels} channels, "
                f"got {inputs.shape[-3]}")
        batch, channels = inputs.shape[-4:-2]
        out_c, out_h, out_w = self.output_shape(inputs.shape[-3:])
        kh, kw = self.kernel_size
        # Channel-major so that ``cols[..., offset, :, :, :]`` is this
        # offset's final rows: one copy per offset, no transposed re-copy.
        padded = _padded(inputs, self.padding).swapaxes(-4, -3)
        cols = np.empty(lead + (channels, kh * kw, batch, out_h, out_w),
                        dtype=inputs.dtype)
        views = _window_views(padded, self.kernel_size, self.stride,
                              out_h, out_w)
        for offset, view in enumerate(views):
            cols[..., offset, :, :, :] = view
        cols = cols.reshape(lead + (channels * kh * kw,
                                    batch * out_h * out_w))
        out_mat = self._weight_mat() @ cols
        if self.bias is not None:
            out_mat += self.bias.data[..., np.newaxis]
        if self._neuron_mask is not None:
            out_mat *= self._neuron_mask[:, np.newaxis]
        self._cols = cols
        self._input_shape = inputs.shape
        return out_mat.reshape(lead + (out_c, batch, out_h,
                                       out_w)).swapaxes(-4, -3)

    def _accumulate(self, grad_output: np.ndarray) -> np.ndarray:
        """Add this batch's weight/bias gradients; returns ``grad_mat``."""
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        batch, _, out_h, out_w = grad_output.shape[-4:]
        grad_mat = grad_output.swapaxes(-4, -3).reshape(
            self.client_shape + (self.out_channels, batch * out_h * out_w))
        if self._neuron_mask is not None:
            grad_mat = grad_mat * self._neuron_mask[:, np.newaxis]
        self.weight.accumulate((self._cols @ grad_mat.mT).mT.reshape(
            self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate(grad_mat.sum(axis=-1))
        return grad_mat

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_mat = self._accumulate(grad_output)
        batch, channels, height, width = self._input_shape[-4:]
        out_h, out_w = grad_output.shape[-2:]
        kh, kw = self.kernel_size
        ph, pw = self.padding
        lead = self.client_shape
        weight_cols = self._weight_mat().mT
        # One filter (a compact layer's single active one) makes every
        # entry one product: NumPy's matmul runs a unit inner dimension
        # through its slow non-BLAS loop, the broadcast product is the
        # same bits ~10x faster.
        grad_cols = (weight_cols * grad_mat if self.out_channels == 1
                     else weight_cols @ grad_mat).reshape(
            lead + (channels, kh * kw, batch, out_h, out_w))
        folded = np.zeros(lead + (channels, batch, height + 2 * ph,
                                  width + 2 * pw), dtype=grad_cols.dtype)
        views = _window_views(folded, self.kernel_size, self.stride,
                              out_h, out_w)
        for offset, view in enumerate(views):
            view += grad_cols[..., offset, :, :, :]
        return folded[..., ph:ph + height, pw:pw + width].swapaxes(-4, -3)
