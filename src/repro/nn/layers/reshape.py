"""Shape-manipulation layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import Layer

__all__ = ["Flatten", "Dropout"]


class Flatten(Layer):
    """Flatten all non-batch (and non-client) dimensions into one axis."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name or "flatten")
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[:len(self.client_shape) + 1]
                              + (-1,))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)


class Dropout(Layer):
    """Inverted dropout; identity in evaluation mode."""

    def __init__(self, rate: float = 0.5,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "") -> None:
        super().__init__(name=name or "dropout")
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng()
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        kept = self.rng.random(inputs.shape) < keep
        self._mask = kept.astype(inputs.dtype) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
