"""Sequential model container.

The :class:`Sequential` model is the unit that federated clients train and
the server aggregates.  It exposes:

* the usual ``forward`` / ``backward`` / ``train_step`` API,
* parameter (de)serialization as flat dictionaries (used by FL aggregation),
* per-layer neuron enumeration and masking (used by Helios soft-training).
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from .layers.base import CompositeLayer, Layer
from .losses import Loss
from .optimizers import Optimizer
from .parameter import Parameter

__all__ = ["Sequential", "iter_leaf_layers"]


def iter_leaf_layers(layers: Sequence[Layer]) -> Iterator[Layer]:
    """Yield leaf layers, recursing into composite layers in order."""
    for layer in layers:
        if isinstance(layer, CompositeLayer):
            yield from iter_leaf_layers(list(layer.children()))
        else:
            yield layer


class Sequential:
    """A plain feed-forward stack of layers."""

    def __init__(self, layers: Sequence[Layer], name: str = "model") -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.name = name
        self.training = True

    # ------------------------------------------------------------------ #
    # mode switching
    # ------------------------------------------------------------------ #
    def train(self) -> None:
        """Put every layer into training mode."""
        self.training = True
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        """Put every layer into evaluation mode."""
        self.training = False
        for layer in self.layers:
            layer.eval()

    # ------------------------------------------------------------------ #
    # forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run the input through all layers."""
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through all layers; returns the input gradient."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        """Back-propagate for the parameter gradients only.

        What :meth:`train_step` runs: the gradient with respect to the
        model input is never computed.  The walk stops at the first layer
        that owns parameters (its :meth:`Layer.backward_parameters
        <repro.nn.layers.base.Layer.backward_parameters>` skips the input
        gradient) and never enters the parameter-free layers before it.
        Parameter gradients are byte-identical to :meth:`backward`'s.
        """
        first = next((index for index, layer in enumerate(self.layers)
                      if layer.parameters()), None)
        if first is None:
            return
        grad = grad_output
        for layer in reversed(self.layers[first + 1:]):
            grad = layer.backward(grad)
        self.layers[first].backward_parameters(grad)

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    def stacked(self, copies: int) -> "Sequential":
        """A twin of this model that trains ``copies`` clients at once.

        Every layer is its :meth:`Layer.stacked
        <repro.nn.layers.base.Layer.stacked>` twin, so inputs, parameters,
        masks and losses carry a leading client axis; :meth:`set_weights`
        starts every client from one snapshot, and :meth:`train_step` with
        a ``SoftmaxCrossEntropy(client_shape=(copies,))`` and the usual
        optimizers is one step of all of them — slice ``j`` bit-identical
        to client ``j`` training alone.  Only meaningful for the layers
        that support the client axis (``repro.fl.fusion`` checks).
        """
        return Sequential([layer.stacked(copies) for layer in self.layers],
                          name=self.name)

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train_step(self, inputs: np.ndarray, targets: np.ndarray,
                   loss_fn: Loss, optimizer: Optimizer) -> float:
        """One optimization step on a mini-batch; returns the loss value
        (the ``(C,)`` per-client losses on a :meth:`stacked` twin)."""
        self.zero_grad()
        logits = self.forward(inputs)
        loss_value = loss_fn.forward(logits, targets)
        self.backward_parameters(loss_fn.backward())
        optimizer.step()
        self.drop_caches()
        return loss_value

    def drop_caches(self) -> None:
        """Release every layer's per-batch caches (see
        :meth:`Layer.drop_caches <repro.nn.layers.base.Layer.drop_caches>`):
        what :meth:`train_step` and :meth:`predict` do before returning,
        so a model at rest holds its parameters and buffers only."""
        for layer in self.layers:
            layer.drop_caches()

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All trainable parameters in layer order."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def named_parameters(self) -> Dict[str, Parameter]:
        """Mapping from unique parameter name to :class:`Parameter`.

        Names are made unique by appending an index when layers share a
        name (which only happens if callers construct layers carelessly).
        """
        named: Dict[str, Parameter] = {}
        for param in self.parameters():
            key = param.name
            suffix = 1
            while key in named:
                suffix += 1
                key = f"{param.name}#{suffix}"
            named[key] = param
        return named

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------ #
    # state (de)serialization — the FL exchange format
    # ------------------------------------------------------------------ #
    def named_buffers(self) -> Dict[str, np.ndarray]:
        """Non-trainable exchanged state (e.g. batch-norm running stats)."""
        buffers: Dict[str, np.ndarray] = {}
        for layer in iter_leaf_layers(self.layers):
            buffers.update(layer.buffers())
        return buffers

    def get_weights(self) -> Dict[str, np.ndarray]:
        """Copy of all exchanged tensors (parameters + buffers) by name.

        Buffers (batch-norm running statistics) are included because
        federated aggregation must ship them with the model: a global model
        evaluated with initialization statistics is useless even if its
        trainable parameters are perfectly aggregated.
        """
        weights = {name: param.data.copy()
                   for name, param in self.named_parameters().items()}
        for name, value in self.named_buffers().items():
            weights[name] = np.asarray(value).copy()
        return weights

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Load tensors previously produced by :meth:`get_weights`.

        Every trainable parameter must be present; buffers are loaded when
        provided (older checkpoints without them remain loadable).
        """
        self.check_weights(weights)
        for name, param in self.named_parameters().items():
            value = np.asarray(weights[name])
            if param.client_shape:
                # A stacked twin: every client starts from this snapshot,
                # or client ``j`` from its slice ``j``.
                param.data[...] = value
            else:
                param.data = value.astype(param.data.dtype, copy=True)
        buffer_names = self.named_buffers()
        buffer_owners = {name: layer
                         for layer in iter_leaf_layers(self.layers)
                         for name in layer.buffers()}
        for name in buffer_names:
            if name in weights:
                buffer_owners[name].set_buffer(name, weights[name])

    def check_weights(self, weights: Mapping[str, np.ndarray]) -> None:
        """Refuse ``weights`` that :meth:`set_weights` cannot load: a
        missing parameter (``KeyError``) or one of another shape
        (``ValueError``).  A stacked twin also takes one slice a client."""
        named = self.named_parameters()
        missing = set(named) - set(weights)
        if missing:
            raise KeyError(f"missing weights for parameters: {sorted(missing)}")
        for name, param in named.items():
            shape = np.shape(weights[name])
            expected = param.data.shape[len(param.client_shape):]
            if shape not in (expected, param.data.shape):
                raise ValueError(
                    f"shape mismatch for {name!r}: expected "
                    f"{expected}, got {shape}")

    def get_gradients(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter gradients keyed by parameter name."""
        return {name: param.grad.copy()
                for name, param in self.named_parameters().items()}

    # ------------------------------------------------------------------ #
    # neuron structure (soft-training hooks)
    # ------------------------------------------------------------------ #
    def neuron_layers(self) -> List[Layer]:
        """Leaf layers that own maskable neurons, in forward order."""
        return [layer for layer in iter_leaf_layers(self.layers)
                if layer.num_neurons > 0]

    def neuron_counts(self) -> List[int]:
        """Number of neurons per maskable layer (same order as above)."""
        return [layer.num_neurons for layer in self.neuron_layers()]

    def total_neurons(self) -> int:
        """Total number of maskable neurons across the model."""
        return sum(self.neuron_counts())

    def set_neuron_masks(self,
                         masks: Dict[str, Optional[np.ndarray]]) -> None:
        """Install per-layer neuron masks keyed by layer name."""
        by_name = self._neuron_layers_for(masks)
        for name, mask in masks.items():
            by_name[name].set_neuron_mask(mask)

    def check_neuron_masks(self, masks: Mapping[str, np.ndarray]
                           ) -> Dict[str, np.ndarray]:
        """``masks`` as the boolean arrays :meth:`set_neuron_masks` would
        install, refused as it refuses them — without installing them."""
        by_name = self._neuron_layers_for(masks)
        return {name: by_name[name].check_neuron_mask(mask)
                for name, mask in masks.items()}

    def _neuron_layers_for(self, masks: Mapping[str, object]
                           ) -> Dict[str, Layer]:
        by_name = {layer.name: layer for layer in self.neuron_layers()}
        unknown = set(masks) - set(by_name)
        if unknown:
            raise KeyError(f"unknown maskable layers: {sorted(unknown)}")
        return by_name

    def clear_neuron_masks(self) -> None:
        """Remove every neuron mask so the full model trains."""
        for layer in self.neuron_layers():
            layer.clear_neuron_mask()

    def active_neuron_fraction(self) -> float:
        """Overall fraction of neurons currently active across the model."""
        layers = self.neuron_layers()
        if not layers:
            return 1.0
        total = sum(layer.num_neurons for layer in layers)
        active = sum(layer.num_neurons * layer.active_neuron_fraction()
                     for layer in layers)
        return active / total

    # ------------------------------------------------------------------ #
    # inference helpers
    # ------------------------------------------------------------------ #
    def predict(self, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Class predictions for ``inputs`` (argmax over logits)."""
        was_training = self.training
        self.eval()
        predictions = []
        for start in range(0, inputs.shape[0], batch_size):
            logits = self.forward(inputs[start:start + batch_size])
            predictions.append(np.argmax(logits, axis=1))
        self.drop_caches()
        if was_training:
            self.train()
        return np.concatenate(predictions) if predictions else np.array([])

    def evaluate_accuracy(self, inputs: np.ndarray, targets: np.ndarray,
                          batch_size: int = 64) -> float:
        """Classification accuracy on the given data."""
        predictions = self.predict(inputs, batch_size=batch_size)
        targets = np.asarray(targets)
        if predictions.size == 0:
            return 0.0
        return float(np.mean(predictions == targets))

    def clone_structure(self, factory: Callable[[], "Sequential"]) -> "Sequential":
        """Create a fresh model via ``factory`` and copy this model's weights."""
        clone = factory()
        clone.set_weights(self.get_weights())
        return clone

    def summary(self) -> str:
        """Human-readable layer-by-layer summary."""
        lines = [f"Sequential {self.name!r}"]
        for layer in iter_leaf_layers(self.layers):
            count = sum(param.size for param in layer.parameters())
            lines.append(
                f"  {layer.name:<28} neurons={layer.num_neurons:<6} "
                f"params={count}")
        lines.append(f"  total parameters: {self.num_parameters()}")
        return "\n".join(lines)
