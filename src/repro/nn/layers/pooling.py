"""Spatial pooling layers over strided window views.

There is no patch matrix.  For a ``(kh, kw)`` window with stride
``(sh, sw)`` the ``kh * kw`` strided views ::

    padded[:, :, y : y + sh * out_h : sh, x : x + sw * out_w : sw]

*are* member ``(y, x)`` of every window at once, so pooling is a running
reduction over those views in row-major ``(y, x)`` order — one code path for
every geometry: overlapping windows (stride < kernel), strides that do not
divide the input (the ragged edge is dropped, as a convolution would) and
padding.

Max pooling
    Running ``np.maximum`` over the views; a NaN in a window yields a NaN
    output.  The winner of a window is the **first** member, in ``(y, x)``
    order, equal to the maximum — ``argmax``'s tie rule, which matters
    because a post-ReLU window is full of equal zeros.  Winners are kept as
    one boolean mask per view and ``backward`` scatter-adds ``grad * mask``
    into the same views of a zeroed buffer (a window whose output is NaN
    has no winner and drops its gradient).  Padding is
    ``-inf``, so it never wins and never receives gradient; ``-inf`` is only
    ever compared and copied, never multiplied.  Outputs and gradient
    routing are **exactly** those of the patch-matrix/``argmax`` kernel
    this replaced (``tests/nn/reference_kernels.py``).

Average pooling
    Running sum over the views divided by ``kh * kw``; padding is zero and
    counts (count-include-pad).  The reference reduced each window with
    ``mean``, whose summation order differs for windows of 8+ members, so
    outputs agree to ``allclose(rtol=1e-10)``; input gradients are exact.

Outputs keep the input's dtype; padding must not exceed half the kernel, so
every window holds at least one input element.  Every operation indexes the
spatial axes from the right, so a stacked twin's leading client axis rides
along untouched.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .base import Layer
from .conv import (_padded, _window_geometry, _window_output,
                   _window_views)

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class _Pool2D(Layer):
    """Window geometry and view plumbing shared by max and average pooling."""

    def __init__(self, kernel_size, stride=None, padding=0,
                 name: str = "") -> None:
        super().__init__(name=name or self.__class__.__name__.lower())
        self.kernel_size, self.stride, self.padding = _window_geometry(
            f"{self.__class__.__name__} {self.name!r}", kernel_size,
            stride if stride is not None else kernel_size, padding,
            pooling=True)
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Output ``(channels, height, width)`` for a single sample."""
        channels, height, width = input_shape
        return (channels,) + _window_output(
            height, width, self.kernel_size, self.stride, self.padding)

    def _views(self, inputs: np.ndarray, fill: float) -> List[np.ndarray]:
        """Window-member views of ``inputs`` padded with ``fill``.

        Every forward starts here: it also makes the 4-D check and records
        the input shape ``backward`` folds back to.
        """
        if inputs.ndim != 4 + len(self.client_shape):
            raise ValueError(
                f"{self.__class__.__name__} expects "
                f"{4 + len(self.client_shape)}-D input; "
                f"got shape {inputs.shape}")
        _, out_h, out_w = self.output_shape(inputs.shape[-3:])
        self._input_shape = inputs.shape
        return _window_views(_padded(inputs, self.padding, fill),
                             self.kernel_size, self.stride, out_h, out_w)

    def _grad_views(self, grad_output: np.ndarray
                    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """A zeroed input gradient and the window-member views to add into.

        The gradient is the input-sized interior of a padded buffer; the
        views cover the whole buffer, so what lands in the padding is
        cropped away.
        """
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        height, width = self._input_shape[-2:]
        ph, pw = self.padding
        padded = np.zeros(self._input_shape[:-2] + (height + 2 * ph,
                                                    width + 2 * pw),
                          dtype=grad_output.dtype)
        views = _window_views(padded, self.kernel_size, self.stride,
                              *grad_output.shape[-2:])
        return padded[..., ph:ph + height, pw:pw + width], views


class MaxPool2D(_Pool2D):
    """Max pooling over (possibly overlapping or padded) spatial windows."""

    def __init__(self, kernel_size, stride=None, padding=0,
                 name: str = "") -> None:
        super().__init__(kernel_size, stride, padding, name=name)
        self._winners: Optional[List[np.ndarray]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        views = self._views(inputs, -np.inf)
        outputs = views[0].copy()
        for view in views[1:]:
            np.maximum(outputs, view, out=outputs)
        # First member equal to the maximum wins, like argmax.
        claimed = views[0] == outputs
        self._winners = [claimed.copy()]
        for view in views[1:]:
            winner = view == outputs
            np.greater(winner, claimed, out=winner)
            claimed |= winner
            self._winners.append(winner)
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._winners is None:
            raise RuntimeError("backward called before forward")
        grad_input, views = self._grad_views(grad_output)
        for view, winner in zip(views, self._winners):
            view += grad_output * winner
        return grad_input


class AvgPool2D(_Pool2D):
    """Average pooling over spatial windows (zero padding counts)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        views = self._views(inputs, 0.0)
        outputs = views[0].copy()
        for view in views[1:]:
            outputs += view
        outputs /= float(len(views))
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_input, views = self._grad_views(grad_output)
        share = grad_output / float(len(views))
        for view in views:
            view += share
        return grad_input


class GlobalAvgPool2D(Layer):
    """Average over all spatial positions, producing ``(batch, channels)``."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name or "globalavgpool2d")
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4 + len(self.client_shape):
            raise ValueError(
                f"GlobalAvgPool2D expects {4 + len(self.client_shape)}-D "
                f"input; got {inputs.shape}")
        self._input_shape = inputs.shape
        return inputs.mean(axis=(-2, -1))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        height, width = self._input_shape[-2:]
        scale = 1.0 / float(height * width)
        grad = grad_output[..., np.newaxis, np.newaxis] * scale
        return np.broadcast_to(grad, self._input_shape).copy()
