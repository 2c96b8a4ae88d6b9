"""Fully connected layer."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..initializers import get_initializer
from ..parameter import Parameter
from .base import Layer

__all__ = ["Dense"]


class Dense(Layer):
    """Affine transform ``y = x W^T + b`` (one batched ``matmul`` over a
    stacked twin's client axis).

    The *neurons* are the output units.  A neuron mask zeroes masked
    units' outputs and gradients; a compact sub-network
    (:mod:`repro.nn.compact`) instead keeps only the active rows of
    ``weight``/``bias`` and the columns of the inputs still active.

    Parameters
    ----------
    in_features:
        Size of the input feature dimension.
    out_features:
        Number of output units (the layer's *neurons*).
    use_bias:
        Whether to add a learned bias vector.
    weight_init:
        Name of the weight initializer (see :mod:`repro.nn.initializers`).
    rng:
        Random generator used for initialization; a default generator is
        created when omitted (non-reproducible — prefer passing one).
    """

    def __init__(self, in_features: int, out_features: int,
                 use_bias: bool = True, weight_init: str = "he_normal",
                 rng: Optional[np.random.Generator] = None,
                 name: str = "") -> None:
        super().__init__(name=name or "dense")
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        init = get_initializer(weight_init)
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = use_bias
        self.weight = Parameter(init((out_features, in_features), rng),
                                name=f"{self.name}/weight", neuron_axis=0)
        self.bias: Optional[Parameter] = None
        if use_bias:
            self.bias = Parameter(np.zeros(out_features),
                                  name=f"{self.name}/bias", neuron_axis=0)
        self._inputs: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    @property
    def num_neurons(self) -> int:
        return self.out_features

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 2 + len(self.client_shape):
            raise ValueError(
                f"Dense expects {2 + len(self.client_shape)}-D input "
                f"(batch, features); got shape {inputs.shape}")
        if inputs.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense {self.name!r} expects {self.in_features} features, "
                f"got {inputs.shape[-1]}")
        self._inputs = inputs
        outputs = inputs @ self.weight.data.mT
        if self.bias is not None:
            outputs = outputs + self.bias.data[..., np.newaxis, :]
        if self._neuron_mask is not None:
            outputs = outputs * self._neuron_mask
        return outputs

    def _accumulate(self, grad_output: np.ndarray) -> np.ndarray:
        """Add this batch's weight/bias gradients; returns the masked grad."""
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        if self._neuron_mask is not None:
            grad_output = grad_output * self._neuron_mask
        self.weight.accumulate(grad_output.mT @ self._inputs)
        if self.bias is not None:
            self.bias.accumulate(grad_output.sum(axis=-2))
        return grad_output

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._accumulate(grad_output) @ self.weight.data
