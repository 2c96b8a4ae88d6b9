"""2-D convolution as one GEMM per kernel row over a row-unfolded input.

Data layout is ``(batch, channels, height, width)`` throughout, matching the
conventional CNN layout the paper's models (LeNet/AlexNet/ResNet) use.

Row-unfolded buffer
-------------------
``forward`` lowers the input along the kernel's columns only — MEC (Cho &
Brand, "MEC: Memory-efficient Convolution for Deep Neural Network", ICML
2017, https://arxiv.org/abs/1706.06873).  ``cols`` has shape
``(channels, kw, phases, rows, batch, out_w)``: entry ``(c, x, p, q, b,
j)`` is padded input pixel ``(b, c, p + sh * q, x + sw * j)``, so each
input pixel is copied once per kernel *column* (``C * kw`` rows of
output-row length), not once per kernel offset (``C * kh * kw``).  The
padded rows are split by stride phase ``p < min(sh, kh)``; ``rows`` of
each are kept, the ones some output row reads.  One zero-filled padded
buffer, then one strided copy per ``(x, p)``.

Kernel row ``y`` of every output row ``i`` reads padded row ``y + sh * i``:
phase ``y % sh``, rows ``y // sh + i``.  Those are consecutive, so
``slab_y = cols[:, :, y % sh, y // sh : y // sh + out_h]`` is one strided
``(C * kw, out_h * B * out_w)`` matrix — a view, overlapping its
neighbours at stride 1 — whose rows are in the order of the flattened
``weight[o, :, y, :]``.  The layer is ``kh`` GEMMs of each of three kinds,
summed over ``y`` in order::

    out_mat   += weight_y @ slab_y              # (out_c, oh * B * ow)
    weight.grad[:, :, y, :] = (slab_y @ grad_mat.T).T
    grad_slab_y += weight_y.T @ grad_mat        # into a zeroed buffer

``grad_mat`` is the output gradient as ``(out_c, oh * B * ow)``.  The
forward and the input gradient run over blocks of output rows (a column
range of ``out_mat`` or ``grad_mat``, the matching rows of every slab) of
at most ``_BLOCK_VALUES`` values, all ``kh`` kernel rows per block, so a
block's partial sums stay in cache between kernel rows (unblocked, a
LeNet ``conv1`` forward at batch 64 fell off the L2 and ran slower than
the patch matrix it replaced).  Bias and neuron mask are applied to
the rows of a finished ``out_mat`` block (a masked filter is one row; a
compact sub-network, :mod:`repro.nn.compact`, drops the row instead, and
the ``C * kw`` rows of every inactive input channel with it).
``out_mat`` is copied once into ``(out_c, B, oh, ow)`` and returned as a
``(batch, out_c, out_h, out_w)`` view — not C-contiguous; every layer
downstream takes views, and BatchNorm reduces this layout fastest.  The
zeroed gradient buffer is folded back to image space with one strided add
per ``(x, p)``, into the same channel-major layout.
``backward_parameters`` stops after the weight gradient: a training step
never reads the input gradient of the first layer that owns parameters.
The weight gradient keeps ``slab_y`` on the left for every shape (the
GEMM with a handful of output rows is the slow shape, measured on the
LeNet, AlexNet and ResNet layers — ``BENCH_substrate.json``
``nn_kernels``), and a product whose inner dimension is 1 (one filter; one
input channel of a one-column kernel) is the broadcast product, the same
bits as NumPy's slow non-BLAS matmul loop for that shape.  One kernel for
every geometry: strides, 1x1 shortcuts, non-square kernels and padding,
compact layers of one filter or none.

Numerics
--------
The arithmetic is that of the channel-major patch matrix ``(C * kh * kw,
B * oh * ow)`` this replaced and of the position-major im2col kernel before
it (both kept as test-only references in
``tests/nn/reference_kernels.py``), but every ``C * kh * kw``-term dot is
now ``kh`` partial dots of ``C * kw`` terms summed in ``y`` order, so
results agree with both to ``allclose(rtol=1e-10)`` in float64, not bit
for bit.  Masked filters
produce exactly zero activations and receive exactly zero weight and bias
gradients.  No dtype is named here: outputs and gradients follow NumPy's
promotion of the input and the parameters, float32 when both are
float32.

Nothing is cached across steps: ``forward`` keeps this call's ``cols`` for
the matching ``backward``, the next ``forward`` replaces it, and
``Sequential.train_step`` / ``predict`` drop it
(:meth:`~repro.nn.layers.base.Layer.drop_caches`).

On a stacked twin (see :mod:`repro.nn.layers.base`) every array above
gains a leading client axis and the products become batched
``np.matmul``s over it — per client the same BLAS call on the same strides,
so bit-identical to the plain layer.  Geometry is indexed from the right
throughout, and the window helpers below take any leading axes.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

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
    def _buffer_shape(self, inputs_shape: Tuple[int, ...],
                      out_h: int, out_w: int) -> Tuple[int, ...]:
        """``(..., C, kw, phases, rows, B, out_w)`` of the row-unfolded
        buffer: ``phases`` are the stride phases some kernel row reads,
        ``rows`` the padded rows kept a phase."""
        kh, kw = self.kernel_size
        sh = self.stride[0]
        batch, channels = inputs_shape[-4:-2]
        return self.client_shape + (channels, kw, min(sh, kh),
                                    (kh - 1) // sh + out_h, batch, out_w)

    def _columns(self, image: np.ndarray, cols: np.ndarray
                 ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """``(image view, cols view)`` per kernel column and stride phase,
        for a padded ``image`` given as ``(..., C, padded h, B, padded
        w)``: the pixels that entry of ``cols`` holds, and the entry, both
        as ``(..., C, count, B, out_w)``."""
        kh = self.kernel_size[0]
        sh, sw = self.stride
        _, kw, phases, rows, _, out_w = cols.shape[-6:]
        out_h = rows - (kh - 1) // sh
        for x in range(kw):
            for phase in range(phases):
                count = (kh - 1 - phase) // sh + out_h
                yield (image[..., phase:phase + sh * count:sh, :,
                             x:x + sw * out_w:sw],
                       cols[..., x, phase, :count, :, :])

    def _slabs(self, cols: np.ndarray, top: int,
               bottom: int) -> List[np.ndarray]:
        """Kernel row ``y``'s slab of ``cols`` for output rows ``top`` to
        ``bottom``: a ``(..., C * kw, (bottom - top) * B * out_w)`` view,
        one per kernel row."""
        sh = self.stride[0]
        channels, kw, _, _, batch, out_w = cols.shape[-6:]
        shape = self.client_shape + (channels * kw,
                                     (bottom - top) * batch * out_w)
        return [cols[..., y % sh, y // sh + top:y // sh + bottom, :, :]
                .reshape(shape) for y in range(self.kernel_size[0])]

    def _blocks(self, out_h: int, row_values: int) -> List[Tuple[int, int]]:
        """Output-row ranges ``(top, bottom)`` of at most ``_BLOCK_VALUES``
        values, ``row_values`` to an output row (one block at least)."""
        step = max(1, _BLOCK_VALUES // max(1, row_values))
        return [(top, min(top + step, out_h))
                for top in range(0, out_h, step)]

    def _weight_rows(self) -> np.ndarray:
        """``weight`` as ``(..., kh, out_c, C * kw)``: entry ``y`` is
        kernel row ``y``'s GEMM operand."""
        kh, kw = self.kernel_size
        return self.weight.data.swapaxes(-2, -3).swapaxes(-3, -4).reshape(
            self.client_shape + (kh, self.out_channels,
                                 self.in_channels * kw))

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
        batch = inputs.shape[-4]
        out_c, out_h, out_w = self.output_shape(inputs.shape[-3:])
        cols = np.empty(self._buffer_shape(inputs.shape, out_h, out_w),
                        dtype=inputs.dtype)
        padded = _padded(inputs, self.padding)
        for pixels, entry in self._columns(
                padded.swapaxes(-4, -3).swapaxes(-3, -2), cols):
            entry[...] = pixels
        weight_rows = self._weight_rows()
        row_values = batch * out_w
        out_mat = np.empty(lead + (out_c, out_h * row_values),
                           dtype=np.result_type(weight_rows, cols))
        # Block by output rows so that a block's kh partial sums stay in
        # cache from the first kernel row to the last, bias and mask
        # included (both act on a filter's row).
        for top, bottom in self._blocks(out_h, out_c * row_values):
            block = out_mat[..., top * row_values:bottom * row_values]
            for y, slab in enumerate(self._slabs(cols, top, bottom)):
                if y == 0:
                    _product(weight_rows[..., y, :, :], slab, out=block)
                else:
                    block += _product(weight_rows[..., y, :, :], slab)
            if self.bias is not None:
                block += self.bias.data[..., np.newaxis]
            if self._neuron_mask is not None:
                block *= self._neuron_mask[:, np.newaxis]
        # Back to (out_c, B, oh, ow): the layout every layer downstream
        # reads fastest (BatchNorm's channel reduction above all).
        outputs = np.empty(lead + (out_c, batch, out_h, out_w),
                           dtype=out_mat.dtype)
        outputs[...] = out_mat.reshape(
            lead + (out_c, out_h, batch, out_w)).swapaxes(-3, -2)
        self._cols = cols
        self._input_shape = inputs.shape
        return outputs.swapaxes(-4, -3)

    def _accumulate(self, grad_output: np.ndarray) -> np.ndarray:
        """Add this batch's weight/bias gradients; returns ``grad_mat``,
        the output gradient as ``(..., out_c, out_h * B * out_w)``."""
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        lead = self.client_shape
        batch, out_c, out_h, out_w = grad_output.shape[-4:]
        grad_mat = np.empty(lead + (out_c, out_h, batch, out_w),
                            dtype=grad_output.dtype)
        grad_mat[...] = grad_output.swapaxes(-4, -3).swapaxes(-3, -2)
        if self._neuron_mask is not None:
            grad_mat *= self._neuron_mask[:, np.newaxis, np.newaxis,
                                          np.newaxis]
        grad_mat = grad_mat.reshape(lead + (out_c, out_h * batch * out_w))
        kh, kw = self.kernel_size
        # (..., kh, C * kw, out_c) -> weight's (..., out_c, C, kh, kw).
        weight_grad = np.stack([_product(slab, grad_mat.mT)
                                for slab in self._slabs(self._cols, 0, out_h)],
                               axis=-3)
        self.weight.accumulate(weight_grad.reshape(
            lead + (kh, self.in_channels, kw, out_c)).swapaxes(
                -1, -4).swapaxes(-1, -2))
        if self.bias is not None:
            self.bias.accumulate(grad_mat.sum(axis=-1))
        return grad_mat

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_mat = self._accumulate(grad_output)
        batch, channels, height, width = self._input_shape[-4:]
        out_h, out_w = grad_output.shape[-2:]
        ph, pw = self.padding
        weight_rows = self._weight_rows()
        grad_cols = np.zeros(self._cols.shape,
                             dtype=np.result_type(weight_rows, grad_mat))
        row_values = batch * out_w
        for top, bottom in self._blocks(
                out_h, channels * self.kernel_size[1] * row_values):
            grad_block = grad_mat[..., top * row_values:bottom * row_values]
            for y, slab in enumerate(self._slabs(grad_cols, top, bottom)):
                slab += _product(weight_rows[..., y, :, :].mT, grad_block)
        # Channel-major like the forward's outputs: the layout the layer
        # before (BatchNorm above all) reads back fastest.
        folded = np.zeros(self.client_shape + (channels, batch,
                                               height + 2 * ph,
                                               width + 2 * pw),
                          dtype=grad_cols.dtype)
        for pixels, entry in self._columns(folded.swapaxes(-3, -2),
                                           grad_cols):
            pixels += entry
        return folded.swapaxes(-4, -3)[..., ph:ph + height, pw:pw + width]


#: Partial sums a block of output rows of the forward or the input
#: gradient spans: 256 KiB of float32, well inside a core's L2.
_BLOCK_VALUES = 1 << 16


def _product(left: np.ndarray, right: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """``left @ right``.  A unit inner dimension (one filter; one input
    channel of a one-column kernel; one output position) makes every entry
    one product: NumPy's matmul runs it through its slow non-BLAS loop, the
    broadcast product is the same bits ~10x faster."""
    if left.shape[-1] == 1:
        return np.multiply(left, right, out=out)
    return np.matmul(left, right, out=out)
