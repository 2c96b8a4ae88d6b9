"""Parameter container for the pure-NumPy neural-network substrate.

A :class:`Parameter` bundles a weight tensor with its gradient and a small
amount of metadata (a name and an ``axis`` describing which dimension indexes
*output neurons*).  The neuron axis is what the Helios soft-training logic
masks: selecting a subset of neurons in a layer means selecting a subset of
slices along this axis of every parameter that belongs to the layer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A trainable tensor with an associated gradient buffer.

    Parameters
    ----------
    data:
        Initial value, rounded once to ``float32`` — the dtype the whole
        substrate trains in and the 4 bytes a value the cost model bills.
        This is the only place a parameter's dtype is named: layers, losses
        and optimizers follow their operands, so a test that assigns
        float64 ``data``/``grad`` afterwards gets a float64 model.
    name:
        Human-readable identifier, e.g. ``"conv1/weight"``.
    neuron_axis:
        The axis of ``data`` that indexes output neurons (filters for
        convolutions, output units for dense layers).  ``None`` means the
        parameter is not neuron-structured (e.g. a scalar temperature).
    """

    def __init__(self, data: np.ndarray, name: str = "param",
                 neuron_axis: Optional[int] = 0) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.neuron_axis = neuron_axis

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        """Shape of the underlying tensor."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Total number of scalar entries."""
        return int(self.data.size)

    @property
    def num_neurons(self) -> int:
        """Number of neurons along :attr:`neuron_axis` (0 if unstructured)."""
        if self.neuron_axis is None:
            return 0
        return int(self.data.shape[self.neuron_axis])

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zeros."""
        self.grad = np.zeros_like(self.data)

    # ------------------------------------------------------------------ #
    # neuron-structured views
    # ------------------------------------------------------------------ #
    def neuron_slice(self, index: int) -> np.ndarray:
        """Return a view of the parameter slice belonging to one neuron."""
        if self.neuron_axis is None:
            raise ValueError(f"parameter {self.name!r} has no neuron axis")
        return np.take(self.data, index, axis=self.neuron_axis)

    def neuron_norms(self) -> np.ndarray:
        """L2 norm of each neuron's slice (used by contribution metrics)."""
        if self.neuron_axis is None:
            raise ValueError(f"parameter {self.name!r} has no neuron axis")
        moved = np.moveaxis(self.data, self.neuron_axis, 0)
        flat = moved.reshape(moved.shape[0], -1)
        return np.linalg.norm(flat, axis=1)

    def copy(self) -> "Parameter":
        """Deep copy of data, grad and metadata (dtype included)."""
        clone = Parameter(self.data, name=self.name,
                          neuron_axis=self.neuron_axis)
        clone.data = self.data.copy()
        clone.grad = self.grad.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Parameter(name={self.name!r}, shape={self.data.shape}, "
                f"neuron_axis={self.neuron_axis})")
