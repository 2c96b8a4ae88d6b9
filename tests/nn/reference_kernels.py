"""The im2col kernels ``repro.nn.layers`` shipped before the channel-major
unfold and the window-view pools replaced them.

Test-only.  ``im2col``/``col2im`` and the ``forward``/``backward`` bodies
below are the deleted ``src/`` code moved here unchanged; each reference
layer subclasses the layer it used to be, so it is constructed (and its
geometry validated) the same way and only the kernels differ.  They are the
reference of ``tests/nn/test_conv_kernels.py``, of the Hypothesis property
in ``tests/property/test_conv_kernel_properties.py`` and of the
``nn_kernels`` section of ``benchmarks/bench_substrate.py``.

The reference max-pool pads with zeros (``np.pad`` inside ``im2col``) and
lets the padding win — the bug the ``-inf`` padding fixed — so it is exact
for unpadded geometries and for padded ones on strictly positive inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.layers import AvgPool2D, Conv2D, MaxPool2D
from repro.nn.layers.base import CompositeLayer
from repro.nn.layers.conv import conv_output_size

__all__ = ["im2col", "col2im", "ReferenceConv2D", "ReferenceMaxPool2D",
           "ReferenceAvgPool2D", "use_reference_kernels"]


def im2col(inputs: np.ndarray, kernel: Tuple[int, int],
           stride: Tuple[int, int], pad: Tuple[int, int]) -> np.ndarray:
    """Unfold image patches into a matrix.

    Returns an array of shape
    ``(batch * out_h * out_w, channels * kh * kw)``.
    """
    batch, channels, height, width = inputs.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    padded = np.pad(inputs, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                    mode="constant")
    cols = np.empty((batch, channels, kh, kw, out_h, out_w),
                    dtype=inputs.dtype)
    for y in range(kh):
        y_max = y + sh * out_h
        for x in range(kw):
            x_max = x + sw * out_w
            cols[:, :, y, x, :, :] = padded[:, :, y:y_max:sh, x:x_max:sw]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, -1)
    return cols


def col2im(cols: np.ndarray, input_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           pad: Tuple[int, int]) -> np.ndarray:
    """Fold a column matrix back into image space (adjoint of im2col)."""
    batch, channels, height, width = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw),
                      dtype=cols.dtype)
    for y in range(kh):
        y_max = y + sh * out_h
        for x in range(kw):
            x_max = x + sw * out_w
            padded[:, :, y:y_max:sh, x:x_max:sw] += cols[:, :, y, x, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph:height + ph, pw:width + pw]


class ReferenceConv2D(Conv2D):
    """``Conv2D`` with the im2col forward/backward it had before."""

    _cols = None
    _input_shape = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ValueError(
                f"Conv2D expects 4-D input (batch, channels, h, w); "
                f"got shape {inputs.shape}")
        if inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D {self.name!r} expects {self.in_channels} channels, "
                f"got {inputs.shape[1]}")
        batch = inputs.shape[0]
        out_c, out_h, out_w = self.output_shape(inputs.shape[1:])
        cols = im2col(inputs, self.kernel_size, self.stride, self.padding)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        outputs = cols @ weight_mat.T
        if self.bias is not None:
            outputs = outputs + self.bias.data
        outputs = outputs.reshape(batch, out_h, out_w, out_c)
        outputs = outputs.transpose(0, 3, 1, 2)
        if self._neuron_mask is not None:
            outputs = outputs * self._neuron_mask[np.newaxis, :, np.newaxis,
                                                  np.newaxis]
        self._cols = cols
        self._input_shape = inputs.shape
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        if self._neuron_mask is not None:
            grad_output = grad_output * self._neuron_mask[np.newaxis, :,
                                                          np.newaxis,
                                                          np.newaxis]
        batch, out_c, out_h, out_w = grad_output.shape
        grad_mat = grad_output.transpose(0, 2, 3, 1).reshape(-1, out_c)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.accumulate((grad_mat.T @ self._cols).reshape(
            self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate(grad_mat.sum(axis=0))
        grad_cols = grad_mat @ weight_mat
        grad_input = col2im(grad_cols, self._input_shape, self.kernel_size,
                            self.stride, self.padding)
        return grad_input


    def backward_parameters(self, grad_output: np.ndarray) -> None:
        """The old ``train_step`` ran the full backward on every layer."""
        self.backward(grad_output)


class ReferenceMaxPool2D(MaxPool2D):
    """``MaxPool2D`` with the im2col/argmax forward/backward it had before."""

    _input_shape = None
    _argmax = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ValueError(
                f"MaxPool2D expects 4-D input; got shape {inputs.shape}")
        batch, channels, height, width = inputs.shape
        kh, kw = self.kernel_size
        out_c, out_h, out_w = self.output_shape(inputs.shape[1:])
        # Treat each channel independently so that im2col columns hold one
        # pooling window per row.
        reshaped = inputs.reshape(batch * channels, 1, height, width)
        cols = im2col(reshaped, self.kernel_size, self.stride, self.padding)
        cols = cols.reshape(-1, kh * kw)
        self._argmax = np.argmax(cols, axis=1)
        outputs = cols[np.arange(cols.shape[0]), self._argmax]
        outputs = outputs.reshape(batch, channels, out_h, out_w)
        self._input_shape = inputs.shape
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None or self._argmax is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._input_shape
        kh, kw = self.kernel_size
        grad_flat = grad_output.reshape(-1)
        grad_cols = np.zeros((grad_flat.size, kh * kw), dtype=grad_output.dtype)
        grad_cols[np.arange(grad_flat.size), self._argmax] = grad_flat
        grad_input = col2im(grad_cols,
                            (batch * channels, 1, height, width),
                            self.kernel_size, self.stride, self.padding)
        return grad_input.reshape(self._input_shape)


class ReferenceAvgPool2D(AvgPool2D):
    """``AvgPool2D`` with the im2col forward/backward it had before."""

    _input_shape = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ValueError(
                f"AvgPool2D expects 4-D input; got shape {inputs.shape}")
        batch, channels, height, width = inputs.shape
        kh, kw = self.kernel_size
        out_c, out_h, out_w = self.output_shape(inputs.shape[1:])
        reshaped = inputs.reshape(batch * channels, 1, height, width)
        cols = im2col(reshaped, self.kernel_size, self.stride, self.padding)
        cols = cols.reshape(-1, kh * kw)
        outputs = cols.mean(axis=1).reshape(batch, channels, out_h, out_w)
        self._input_shape = inputs.shape
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._input_shape
        kh, kw = self.kernel_size
        grad_flat = grad_output.reshape(-1)
        grad_cols = np.repeat(grad_flat[:, np.newaxis], kh * kw, axis=1)
        grad_cols /= float(kh * kw)
        grad_input = col2im(grad_cols,
                            (batch * channels, 1, height, width),
                            self.kernel_size, self.stride, self.padding)
        return grad_input.reshape(self._input_shape)


_REFERENCE = {Conv2D: ReferenceConv2D, MaxPool2D: ReferenceMaxPool2D,
              AvgPool2D: ReferenceAvgPool2D}


def use_reference_kernels(layers) -> None:
    """Re-class every conv/pool layer under ``layers`` to its reference.

    In place and parameter-preserving: the model keeps its weights, names
    and masks and runs the old kernels from the next forward on.
    """
    for layer in layers:
        if isinstance(layer, CompositeLayer):
            use_reference_kernels(layer.children())
        elif type(layer) in _REFERENCE:
            layer.__class__ = _REFERENCE[type(layer)]
