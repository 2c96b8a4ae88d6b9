"""Normalization layers."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..parameter import Parameter
from .base import Layer

__all__ = ["BatchNorm1D", "BatchNorm2D"]


class _BatchNormBase(Layer):
    """Shared implementation for 1-D and 2-D batch normalization.

    The per-channel scale/shift (``gamma``/``beta``) are the layer's
    neurons, so soft-training can mask them together with the convolution
    filters that feed them.
    """

    def __init__(self, num_features: int, momentum: float = 0.9,
                 epsilon: float = 1e-5, name: str = "") -> None:
        super().__init__(name=name or "batchnorm")
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.num_features = num_features
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma = Parameter(np.ones(num_features),
                               name=f"{self.name}/gamma", neuron_axis=0)
        self.beta = Parameter(np.zeros(num_features),
                              name=f"{self.name}/beta", neuron_axis=0)
        # Buffers live in the parameters' dtype, or an eval-mode forward
        # would promote every activation to the buffers' dtype.
        self.running_mean = np.zeros_like(self.beta.data)
        self.running_var = np.ones_like(self.gamma.data)
        self._cache: Optional[tuple] = None

    @property
    def num_neurons(self) -> int:
        return self.num_features

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def buffers(self):
        return {f"{self.name}/running_mean": self.running_mean,
                f"{self.name}/running_var": self.running_var}

    def set_buffer(self, name: str, value) -> None:
        value = np.asarray(value, dtype=self.gamma.data.dtype)
        if value.shape != (self.num_features,):
            raise ValueError(
                f"buffer {name!r} must have shape ({self.num_features},); "
                f"got {value.shape}")
        if name == f"{self.name}/running_mean":
            self.running_mean = value.copy()
        elif name == f"{self.name}/running_var":
            self.running_var = value.copy()
        else:
            raise KeyError(f"layer {self.name!r} has no buffer {name!r}")

    # Subclasses reshape to (N, C) where N pools batch and spatial dims.
    def _to_2d(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _from_2d(self, flat: np.ndarray, like: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        flat = self._to_2d(inputs)
        if self.training:
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            self.running_mean = (self.momentum * self.running_mean
                                 + (1.0 - self.momentum) * mean)
            self.running_var = (self.momentum * self.running_var
                                + (1.0 - self.momentum) * var)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        normalized = (flat - mean) * inv_std
        out = normalized * self.gamma.data + self.beta.data
        if self._neuron_mask is not None:
            out = out * self._neuron_mask[np.newaxis, :]
        self._cache = (normalized, inv_std, flat.shape[0], inputs)
        return self._from_2d(out, inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalized, inv_std, count, inputs = self._cache
        grad_flat = self._to_2d(grad_output)
        if self._neuron_mask is not None:
            grad_flat = grad_flat * self._neuron_mask[np.newaxis, :]
        self.gamma.accumulate((grad_flat * normalized).sum(axis=0))
        self.beta.accumulate(grad_flat.sum(axis=0))
        if self.training:
            grad_norm = grad_flat * self.gamma.data
            grad_input_flat = (inv_std / count) * (
                count * grad_norm
                - grad_norm.sum(axis=0)
                - normalized * (grad_norm * normalized).sum(axis=0))
        else:
            grad_input_flat = grad_flat * self.gamma.data * inv_std
        return self._from_2d(grad_input_flat, inputs)


class BatchNorm1D(_BatchNormBase):
    """Batch normalization over a ``(batch, features)`` tensor."""

    def _to_2d(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 2:
            raise ValueError(
                f"BatchNorm1D expects 2-D input; got {inputs.shape}")
        return inputs

    def _from_2d(self, flat: np.ndarray, like: np.ndarray) -> np.ndarray:
        return flat


class BatchNorm2D(_BatchNormBase):
    """Batch normalization over a ``(batch, channels, h, w)`` tensor."""

    def _to_2d(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ValueError(
                f"BatchNorm2D expects 4-D input; got {inputs.shape}")
        batch, channels, height, width = inputs.shape
        return inputs.transpose(0, 2, 3, 1).reshape(-1, channels)

    def _from_2d(self, flat: np.ndarray, like: np.ndarray) -> np.ndarray:
        batch, channels, height, width = like.shape
        return flat.reshape(batch, height, width, channels).transpose(
            0, 3, 1, 2)
