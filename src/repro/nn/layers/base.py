"""Layer abstraction for the NumPy neural-network substrate.

Every layer implements ``forward`` / ``backward`` with explicit NumPy
arrays.  Layers that own neuron-structured parameters (dense, convolution,
batch-norm) additionally support a *neuron mask*: a boolean vector with one
entry per output neuron; masked-out neurons produce zero activations and
receive zero gradient.  Helios' soft-training removes a straggler's
inactive neurons outright wherever it can — it trains the smaller model
:mod:`repro.nn.compact` cuts out of the layers — and masks only the models
that cannot be cut (BatchNorm, Dropout, residual blocks, ``Sigmoid``).

Client axis
-----------
A layer of a *stacked twin* (:meth:`Layer.stacked`) trains ``C`` clients at
once: its inputs, outputs and parameters carry a leading axis of ``C``
clients.  The layers that support it (``Dense``, ``Conv2D``, the pools,
the activations, ``Flatten``) index their geometry from the right and
reduce over one client's elements only, so slice ``j`` of every result is
bit-identical to what the plain layer computes for client ``j``.  A twin
takes no neuron mask: a masked client stacks as its compact sub-network.
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..parameter import Parameter

__all__ = ["Layer", "CompositeLayer"]


class Layer:
    """Base class for all layers."""

    #: ``()`` for a plain layer, ``(C,)`` for a stacked twin's layer.
    client_shape: Tuple[int, ...] = ()

    def __init__(self, name: str = "") -> None:
        self.name = name or self.__class__.__name__.lower()
        self.training = True
        self._neuron_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # core protocol
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and accumulate parameter grads."""
        raise NotImplementedError

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        """Accumulate parameter grads; the input gradient is not needed.

        What a training step calls on the first layer that owns
        parameters: nothing upstream of it can use the gradient with
        respect to its input.  The default runs :meth:`backward` and drops
        the result; layers whose input gradient is a separate product
        (``Dense``, ``Conv2D``) override it to stop before that product.
        """
        self.backward(grad_output)

    def parameters(self) -> List[Parameter]:
        """Trainable parameters owned by this layer (may be empty)."""
        return []

    def buffers(self) -> "dict[str, np.ndarray]":
        """Non-trainable state exchanged alongside the parameters.

        Batch-normalization running statistics are the canonical example:
        they are not updated by gradients but must travel with the model in
        federated aggregation, otherwise the global model evaluates with
        initialization statistics.
        """
        return {}

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Install one buffer previously exported by :meth:`buffers`."""
        raise KeyError(f"layer {self.name!r} has no buffer {name!r}")

    def zero_grad(self) -> None:
        """Clear gradients of every owned parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> None:
        """Switch the layer (and sub-layers) to training mode."""
        self.training = True
        for child in self.children():
            child.train()

    def eval(self) -> None:
        """Switch the layer (and sub-layers) to evaluation mode."""
        self.training = False
        for child in self.children():
            child.eval()

    def children(self) -> Iterable["Layer"]:
        """Direct sub-layers (empty for leaf layers)."""
        return []

    def drop_caches(self) -> None:
        """Release what the last forward kept for ``backward``: saved
        inputs, patch buffers, winner masks.

        By convention every private attribute but the neuron mask is such
        a per-call cache (:meth:`stacked` relies on it too); parameters,
        buffers (BatchNorm's running statistics) and the mask are state
        and stay.  A ``backward`` after this behaves as one before any forward.
        Runs after every training step, so it writes the instance
        dictionary directly.
        """
        state = vars(self)
        for attribute in state:
            if attribute[0] == "_" and attribute != "_neuron_mask":
                state[attribute] = None

    def stacked(self, copies: int) -> "Layer":
        """A twin of this leaf layer over a leading axis of ``copies`` clients.

        Settings are shared, every :class:`Parameter` attribute becomes its
        :meth:`Parameter.stacked` twin, and every private attribute — the
        neuron mask and the per-call caches ``backward`` reads — starts
        empty, so the twin refuses a backward before its own forward.
        Only meaningful for the layers that support the client axis (see
        the module docstring).
        """
        twin = copy.copy(self)
        twin.client_shape = (copies,)
        for attribute, value in vars(self).items():
            if isinstance(value, Parameter):
                setattr(twin, attribute, value.stacked(copies))
            elif attribute.startswith("_"):
                setattr(twin, attribute, None)
        return twin

    # ------------------------------------------------------------------ #
    # neuron masking (soft-training hook)
    # ------------------------------------------------------------------ #
    @property
    def num_neurons(self) -> int:
        """Number of maskable output neurons (0 for stateless layers)."""
        return 0

    @property
    def neuron_mask(self) -> Optional[np.ndarray]:
        """Current boolean neuron mask (``None`` means all active)."""
        return self._neuron_mask

    def set_neuron_mask(self, mask: Optional[np.ndarray]) -> None:
        """Install a boolean mask over the layer's output neurons.

        Parameters
        ----------
        mask:
            Boolean array of length :attr:`num_neurons`, or ``None`` to
            clear the mask (train the full layer).
        """
        self._neuron_mask = (None if mask is None
                             else self.check_neuron_mask(mask))

    def check_neuron_mask(self, mask: np.ndarray) -> np.ndarray:
        """``mask`` as the boolean array :meth:`set_neuron_mask` installs;
        ``ValueError`` if it does not fit this layer.  A stacked twin takes
        none: its clients train their compact sub-networks, all active."""
        if self.num_neurons == 0:
            raise ValueError(f"layer {self.name!r} has no maskable neurons")
        if self.client_shape:
            raise ValueError(f"layer {self.name!r} is a stacked twin; "
                             f"its clients train unmasked")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_neurons,):
            raise ValueError(
                f"mask shape {mask.shape} does not match layer "
                f"{self.name!r} with {self.num_neurons} neurons")
        return mask

    def clear_neuron_mask(self) -> None:
        """Remove any installed neuron mask."""
        self._neuron_mask = None

    def active_neuron_fraction(self) -> float:
        """Fraction of neurons currently active (1.0 when unmasked)."""
        if self._neuron_mask is None or self.num_neurons == 0:
            return 1.0
        return float(self._neuron_mask.sum()) / float(self.num_neurons)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r})"


class CompositeLayer(Layer):
    """A layer made of sub-layers (e.g. a residual block).

    Sub-classes populate :attr:`sublayers` and implement ``forward`` /
    ``backward`` in terms of them.  Parameter collection and train/eval
    switching recurse automatically.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name)
        self.sublayers: List[Layer] = []

    def children(self) -> Iterable[Layer]:
        return list(self.sublayers)

    def drop_caches(self) -> None:
        super().drop_caches()
        for child in self.sublayers:
            child.drop_caches()

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for child in self.sublayers:
            params.extend(child.parameters())
        return params

    def buffers(self) -> "dict[str, np.ndarray]":
        collected: "dict[str, np.ndarray]" = {}
        for child in self.sublayers:
            collected.update(child.buffers())
        return collected

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        for child in self.sublayers:
            if name in child.buffers():
                child.set_buffer(name, value)
                return
        raise KeyError(f"layer {self.name!r} has no buffer {name!r}")
