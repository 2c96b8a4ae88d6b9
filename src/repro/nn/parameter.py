"""Parameter container for the pure-NumPy neural-network substrate.

A :class:`Parameter` bundles a weight tensor with its gradient and a small
amount of metadata (a name and an ``axis`` describing which dimension indexes
*output neurons*).  The neuron axis is what the Helios soft-training logic
masks: selecting a subset of neurons in a layer means selecting a subset of
slices along this axis of every parameter that belongs to the layer.

A parameter owns no gradient buffer until a gradient arrives: ``grad`` is a
read-only zero view after construction and after :meth:`Parameter.zero_grad`,
the backward pass hands each parameter its fresh gradient
(:meth:`Parameter.accumulate`) and the optimizer's step consumes it in
place — one gradient array per parameter per step, no zeros written, no
temporaries.  A parameter may also carry a leading *client axis*
(:meth:`Parameter.stacked`): ``C`` clients' copies of the same tensor,
trained at once by a stacked twin of the model
(:meth:`repro.nn.model.Sequential.stacked`).
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A trainable tensor with its gradient.

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

    #: ``()`` for one client's tensor, ``(C,)`` for a stacked twin whose
    #: ``data`` is ``(C,) + shape``.
    client_shape: Tuple[int, ...] = ()

    def __init__(self, data: np.ndarray, name: str = "param",
                 neuron_axis: Optional[int] = 0) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.zero_grad()
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
        """Reset the gradient to zeros: a read-only zero view, no buffer."""
        zero = np.zeros((), self.data.dtype)
        zero.flags.writeable = False
        # np.broadcast_to(zero, shape), without its argument checking.
        self.grad = np.ndarray(self.data.shape, zero.dtype, zero, 0,
                               (0,) * self.data.ndim)

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` — a fresh array the caller hands over — to the
        gradient; the sum, computed in ``grad``, becomes the gradient.

        ``grad + 0`` is ``0 + grad`` bit for bit (a ``-0.0`` becomes
        ``+0.0`` either way), so this is accumulation into a zeroed
        buffer without the buffer.  Like a buffer, the gradient stays
        C-contiguous in the parameter's dtype: a strided or promoted
        ``grad`` is summed into a fresh C-ordered array, wide, and rounded
        once.
        """
        if grad.dtype == self.data.dtype and grad.flags.c_contiguous:
            grad += self.grad
        else:
            grad = np.add(self.grad, grad, order="C").astype(
                self.data.dtype, copy=False)
        self.grad = grad

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

    def stacked(self, copies: int) -> "Parameter":
        """A twin holding ``copies`` clients' slices of this tensor.

        ``data`` is ``(copies,) + shape`` zeros in this parameter's dtype
        (:meth:`Sequential.set_weights <repro.nn.model.Sequential.set_weights>`
        fills every slice from one snapshot); the neuron axis moves one
        to the right.
        """
        twin = copy.copy(self)
        twin.client_shape = (copies,)
        twin.data = np.zeros((copies,) + self.data.shape, self.data.dtype)
        twin.zero_grad()
        if self.neuron_axis is not None:
            twin.neuron_axis = self.neuron_axis + 1
        return twin

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
