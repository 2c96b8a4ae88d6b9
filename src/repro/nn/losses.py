"""Loss functions.

Each loss exposes ``forward(predictions, targets) -> float`` and
``backward() -> np.ndarray`` returning the gradient with respect to the
predictions, averaged over the batch.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

__all__ = ["Loss", "SoftmaxCrossEntropy", "MeanSquaredError", "get_loss"]


class Loss:
    """Base class for losses."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Compute the scalar loss value."""
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        """Gradient of the loss w.r.t. the predictions of the last forward."""
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + cross-entropy for integer class targets.

    ``client_shape=(C,)`` makes it the loss of a stacked twin (see
    :mod:`repro.nn.layers.base`): logits ``(C, batch, classes)``, targets
    ``(C, batch)``, and ``forward`` returns the ``(C,)`` per-client losses
    instead of a float.  Every reduction runs over one client's last axis,
    so client ``j``'s loss and gradient are bit-identical to a plain
    loss's on its own batch.
    """

    def __init__(self, client_shape: Tuple[int, ...] = ()) -> None:
        self.client_shape = tuple(client_shape)
        self._probs: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray
                ) -> Union[float, np.ndarray]:
        if predictions.ndim != 2 + len(self.client_shape):
            raise ValueError(
                f"expected {2 + len(self.client_shape)}-D logits (batch, "
                f"classes); got {predictions.shape}")
        targets = np.asarray(targets)
        if targets.shape != predictions.shape[:-1]:
            raise ValueError(
                f"targets shape {targets.shape} incompatible with logits "
                f"{predictions.shape}")
        if targets.min() < 0 or targets.max() >= predictions.shape[-1]:
            raise ValueError("target labels out of range for logits")
        shifted = predictions - predictions.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        self._probs = probs
        # Each sample's target entry, as (row, column) of the logits
        # viewed as one (samples, classes) matrix.
        self._targets = (np.arange(targets.size), targets.reshape(-1))
        picked = probs.reshape(-1, probs.shape[-1])[self._targets]
        losses = (-np.log(np.clip(picked.reshape(targets.shape), 1e-12,
                                  None))).mean(axis=-1)
        return losses if self.client_shape else float(losses)

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()
        grad.reshape(-1, grad.shape[-1])[self._targets] -= 1.0
        return grad / grad.shape[-2]


class MeanSquaredError(Loss):
    """Mean squared error over all entries."""

    def __init__(self) -> None:
        self._diff: Optional[np.ndarray] = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets, dtype=predictions.dtype)
        if targets.shape != predictions.shape:
            raise ValueError(
                f"targets shape {targets.shape} must match predictions "
                f"{predictions.shape}")
        self._diff = predictions - targets
        return float(np.mean(self._diff ** 2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size


_REGISTRY = {
    "softmax_cross_entropy": SoftmaxCrossEntropy,
    "cross_entropy": SoftmaxCrossEntropy,
    "mse": MeanSquaredError,
}


def get_loss(name: str) -> Loss:
    """Instantiate a loss by name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown loss {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name]()
