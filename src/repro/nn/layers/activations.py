"""Elementwise activation layers.

Each is elementwise (``Softmax`` reduces the last axis only), so a stacked
twin's leading client axis needs no code here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Layer

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Softmax"]


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name or "relu")
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._mask = inputs > 0
        # Not ``inputs * mask``: that turns -inf into NaN and every
        # negative input into -0.0.
        return np.maximum(inputs, 0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class LeakyReLU(Layer):
    """Leaky rectified linear unit with negative slope ``alpha``."""

    def __init__(self, alpha: float = 0.01, name: str = "") -> None:
        super().__init__(name=name or "leakyrelu")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = float(alpha)
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._mask = inputs > 0
        return np.where(self._mask, inputs, self.alpha * inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_output, self.alpha * grad_output)


class Sigmoid(Layer):
    """Logistic sigmoid."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name or "sigmoid")
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._output = 1.0 / (1.0 + np.exp(-np.clip(inputs, -60.0, 60.0)))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)


class Tanh(Layer):
    """Hyperbolic tangent."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name or "tanh")
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._output = np.tanh(inputs)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output ** 2)


class Softmax(Layer):
    """Softmax over the last axis.

    Usually the loss (softmax cross-entropy) fuses this computation; the
    standalone layer exists for models that need explicit probabilities.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name or "softmax")
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        shifted = inputs - inputs.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._output = exp / exp.sum(axis=-1, keepdims=True)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        dot = (grad_output * self._output).sum(axis=-1, keepdims=True)
        return self._output * (grad_output - dot)
