"""Weight initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so that
every experiment in the benchmark harness is reproducible bit-for-bit.
They return NumPy's own float64 draws; :class:`~repro.nn.parameter.Parameter`
rounds them once to the dtype the substrate trains in.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "zeros",
    "ones",
    "uniform",
    "normal",
    "xavier_uniform",
    "xavier_normal",
    "he_uniform",
    "he_normal",
    "get_initializer",
]

Initializer = Callable[[Tuple[int, ...], np.random.Generator], np.ndarray]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in and fan-out for dense and convolutional shapes.

    Dense weights are ``(out, in)``; convolution kernels are
    ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) < 1:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_out = shape[0] * receptive
    fan_in = shape[1] * receptive
    return fan_in, fan_out


def zeros(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zero initialization (biases, batch-norm shift)."""
    del rng
    return np.zeros(shape)


def ones(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-one initialization (batch-norm scale)."""
    del rng
    return np.ones(shape)


def uniform(shape: Tuple[int, ...], rng: np.random.Generator,
            low: float = -0.05, high: float = 0.05) -> np.ndarray:
    """Uniform initialization in ``[low, high)``."""
    return rng.uniform(low, high, size=shape)


def normal(shape: Tuple[int, ...], rng: np.random.Generator,
           std: float = 0.05) -> np.ndarray:
    """Zero-mean Gaussian initialization."""
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(shape: Tuple[int, ...],
                   rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def xavier_normal(shape: Tuple[int, ...],
                  rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier normal initialization."""
    fan_in, fan_out = _fan_in_out(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


def he_uniform(shape: Tuple[int, ...],
               rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialization (ReLU networks)."""
    fan_in, _ = _fan_in_out(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: Tuple[int, ...],
              rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialization (ReLU networks)."""
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


_REGISTRY: Dict[str, Initializer] = {
    "zeros": zeros,
    "ones": ones,
    "uniform": uniform,
    "normal": normal,
    "xavier_uniform": xavier_uniform,
    "xavier_normal": xavier_normal,
    "he_uniform": he_uniform,
    "he_normal": he_normal,
}


def get_initializer(name: str) -> Initializer:
    """Look up an initializer by name.

    Raises
    ------
    KeyError
        If ``name`` is not a registered initializer.
    """
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown initializer {name!r}; "
            f"available: {sorted(_REGISTRY)}")
    return _REGISTRY[name]
