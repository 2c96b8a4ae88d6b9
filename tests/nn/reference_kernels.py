"""The conv/pool kernels ``repro.nn.layers`` shipped before the ones it
ships now.

Test-only.  Two generations of kernels, each the deleted ``src/`` code
moved here unchanged:

* the im2col kernels (``im2col``/``col2im``, ``ReferenceConv2D``,
  ``ReferenceMaxPool2D``, ``ReferenceAvgPool2D``) that the channel-major
  unfold and the window-view pools replaced;
* ``ChannelMajorConv2D``, the channel-major patch matrix
  ``(C * kh * kw, B * oh * ow)`` — one copy of the input per kernel offset
  and one GEMM — that the row-unfolded convolution replaced.  It keeps the
  client axis, so a stacked twin of it runs too.

Each reference layer subclasses the layer it used to be, so it is
constructed (and its geometry validated) the same way and only the kernels
differ.  They are the reference of ``tests/nn/test_conv_kernels.py``, of
the Hypothesis property in ``tests/property/test_conv_kernel_properties.py``,
of the fidelity rows in ``tests/fidelity/test_conv_kernel_rows.py`` and of
the ``nn_kernels`` section of ``benchmarks/bench_substrate.py``.

The reference max-pool pads with zeros (``np.pad`` inside ``im2col``) and
lets the padding win — the bug the ``-inf`` padding fixed — so it is exact
for unpadded geometries and for padded ones on strictly positive inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.layers import AvgPool2D, Conv2D, MaxPool2D
from repro.nn.layers.base import CompositeLayer
from repro.nn.layers.conv import _padded, _window_views, conv_output_size

__all__ = ["im2col", "col2im", "ReferenceConv2D", "ChannelMajorConv2D",
           "ReferenceMaxPool2D", "ReferenceAvgPool2D",
           "use_reference_kernels", "patch_channel_major_conv"]


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


class ChannelMajorConv2D(Conv2D):
    """``Conv2D`` with the channel-major patch matrix it had before the
    row-unfolded kernel: ``cols`` of shape ``(..., C * kh * kw, B * oh *
    ow)``, one strided copy per kernel offset, one GEMM each way."""

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
_CHANNEL_MAJOR = {Conv2D: ChannelMajorConv2D}


def use_reference_kernels(layers, channel_major: bool = False) -> None:
    """Re-class every conv/pool layer under ``layers`` to its reference:
    the im2col kernels, or with ``channel_major`` the convolutions only,
    to :class:`ChannelMajorConv2D`.

    In place and parameter-preserving: the model keeps its weights, names
    and masks and runs the old kernels from the next forward on.
    """
    table = _CHANNEL_MAJOR if channel_major else _REFERENCE
    for layer in layers:
        if isinstance(layer, CompositeLayer):
            use_reference_kernels(layer.children(), channel_major)
        elif type(layer) in table:
            layer.__class__ = table[type(layer)]


def patch_channel_major_conv(monkeypatch) -> None:
    """Run every ``Conv2D`` — built before or after, in any model, on the
    serial backend — on the :class:`ChannelMajorConv2D` kernels until
    ``monkeypatch`` undoes it.

    Patches the class rather than re-classing layers, so a layer stays a
    ``Conv2D`` to every exact-type check (``nn.compact``, ``fl.fusion``).
    """
    for name, value in vars(ChannelMajorConv2D).items():
        if callable(value):
            monkeypatch.setattr(Conv2D, name, value, raising=False)
