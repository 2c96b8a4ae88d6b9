"""Compaction: a mask trains its active sub-network, not a masked full model.

Helios' soft-training shrinks a straggler's model to the neurons its mask
keeps (paper Sec. V).  In a model whose every layer keeps a zero channel
zero (:data:`KEEPS_ZERO`), an inactive neuron contributes nothing: its
output is 0, stays 0 through the activations and pools, and meets the next
layer's weights as a 0 factor, so the masked model's active weights see
exactly the gradients of a smaller model made of the active parts only.
:class:`Compaction` builds that model:

* every ``Dense``/``Conv2D`` keeps the active rows (output neurons, whole
  filters for a convolution) of its ``weight`` and ``bias`` and, of the
  columns, the inputs its predecessor keeps — whole input channels behind
  a convolution, ``channel x (h*w)`` blocks behind a ``Flatten``;
* when the last neuron layer is masked, a :class:`Scatter` after it puts
  the active outputs back into zero-filled full-width ones — a masked
  class still enters the softmax, at 0, as it does in the masked model.

The compact model trains with the stock ``train_step`` and optimizers,
and :meth:`Compaction.scatter` writes the trained entries back into the
full-size weights once per training.  Every other entry is left as it
was — weight decay included, which on a masked full model decays the
inactive weights too (``0 + wd * w``).  Dropping the zero terms changes
the GEMMs' rounding, not their math: ``tests/nn/test_compact.py`` pins
compact training to masked training (``allclose`` weights, the same
entries moved, equal losses, the same RNG stream).  Clients whose masks
have one :func:`compact_shape` train compact models of equal shapes, so
they stack (:mod:`repro.fl.fusion`).
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .layers import (AvgPool2D, Conv2D, Dense, Flatten, GlobalAvgPool2D,
                     LeakyReLU, MaxPool2D, ReLU, Tanh)
from .layers.base import Layer
from .masking import ModelMask
from .model import Sequential
from .parameter import Parameter

__all__ = ["KEEPS_ZERO", "Compaction", "Scatter", "compact_shape",
           "compactable"]


class Scatter(Layer):
    """Zero-filled ``width`` channels, ``index`` of them taken from the
    input: a compact layer's outputs at their full-width positions.

    The channel axis is the last of a ``(batch, features)`` input and the
    third from last of a ``(batch, channels, h, w)`` one.  ``index`` is
    one client's ``(k,)`` — or a stacked twin's ``(C, k)`` — positions,
    and travels as a buffer so that a twin's clients each load their own.
    """

    def __init__(self, index: np.ndarray, width: int, name: str = "") -> None:
        super().__init__(name=name or "scatter")
        self.index = np.asarray(index)
        self.width = width
        self._axis: Optional[int] = None

    def buffers(self) -> "dict[str, np.ndarray]":
        return {f"{self.name}/index": self.index}

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name != f"{self.name}/index":
            super().set_buffer(name, value)
        self.index = np.asarray(value)

    def _positions(self) -> np.ndarray:
        """``index`` shaped to broadcast along :attr:`_axis`."""
        positions = self.index[..., np.newaxis, :]
        if self._axis == -3:
            positions = positions[..., np.newaxis, np.newaxis]
        return positions

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._axis = -3 if inputs.ndim == 4 + len(self.client_shape) else -1
        shape = list(inputs.shape)
        shape[self._axis] = self.width
        outputs = np.zeros(shape, dtype=inputs.dtype)
        np.put_along_axis(outputs, self._positions(), inputs, axis=self._axis)
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._axis is None:
            raise RuntimeError("backward called before forward")
        return np.take_along_axis(grad_output, self._positions(),
                                  axis=self._axis)


#: Layers that keep a zero channel zero, so an inactive neuron can be cut
#: out instead of masked.  Exact types: a subclass may override
#: ``forward``.  ``Sigmoid`` (0 -> 0.5), ``Softmax``, BatchNorm (0 -> beta),
#: Dropout and residual blocks are not among them; their models train
#: masked, one client at a time.  The same list decides who stacks.
KEEPS_ZERO = (Dense, Conv2D, MaxPool2D, AvgPool2D, GlobalAvgPool2D, ReLU,
              LeakyReLU, Tanh, Flatten, Scatter)

_NEURON_LAYERS = (Dense, Conv2D)


def compactable(model: Sequential) -> bool:
    """Whether ``model`` trains compact (and stacks): a plain
    ``Sequential`` of :data:`KEEPS_ZERO` layers."""
    return (type(model) is Sequential
            and all(type(layer) in KEEPS_ZERO for layer in model.layers))


def compact_shape(model: Sequential,
                  mask: Optional[ModelMask]) -> Tuple[int, ...]:
    """Active neurons of each of ``model``'s neuron layers under ``mask``
    (``None``, or a layer it does not cover, keeps all): the compact
    models of two masks with one shape have equal layers."""
    return tuple(
        int(np.count_nonzero(mask[layer.name]))
        if mask is not None and layer.name in mask else layer.num_neurons
        for layer in model.neuron_layers())


def _resized(layer: Layer, rows: Optional[np.ndarray] = None,
             columns: Optional[np.ndarray] = None) -> Layer:
    """A copy of ``layer`` with its private caches empty; for a neuron
    layer, with ``rows`` outputs and ``columns`` inputs (``None``: all)
    and its parameters gathered to match."""
    twin = copy.copy(layer)
    for attribute, value in vars(layer).items():
        if isinstance(value, Parameter):
            gathered = copy.copy(value)
            gathered.data = _gather(value.data, rows, columns)
            gathered.zero_grad()
            setattr(twin, attribute, gathered)
        elif attribute.startswith("_"):
            setattr(twin, attribute, None)
    if rows is None:
        return twin
    inputs = layer.weight.data.shape[1] if columns is None else len(columns)
    if type(layer) is Dense:
        twin.in_features, twin.out_features = inputs, len(rows)
    else:
        twin.in_channels, twin.out_channels = inputs, len(rows)
    return twin


def _gather(value: np.ndarray, rows: np.ndarray,
            columns: Optional[np.ndarray]) -> np.ndarray:
    """``value[rows][:, columns]`` as a fresh C-ordered array (a bias has
    no columns)."""
    value = np.take(value, rows, axis=0)
    if columns is not None and value.ndim > 1:
        value = np.take(value, columns, axis=1)
    return value


class Compaction:
    """The sub-network of ``model`` that ``mask`` keeps.

    ``mask=None`` keeps everything.  A mask that does not fit the model is
    refused as :meth:`ModelMask.apply` refuses it (``KeyError`` for an
    unknown layer, ``ValueError`` for a wrong shape).  :attr:`model` is
    the compact model, its parameters named like the full ones, built on
    first use; :meth:`gather` and :meth:`scatter` move weights between
    the two.
    """

    def __init__(self, model: Sequential,
                 mask: Optional[ModelMask]) -> None:
        if not compactable(model):
            raise ValueError(f"model {model.name!r} cannot train compact")
        active = model.check_neuron_masks(
            dict(mask.items()) if mask is not None else {})
        self._full = model
        #: parameter name -> (rows, columns or None) of the full tensor.
        self._index: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        #: Per layer of ``model``: (rows, columns) of a neuron layer, else
        #: None.
        self._plan: List[Optional[Tuple[np.ndarray,
                                        Optional[np.ndarray]]]] = []
        #: (position, Scatter) after the last neuron layer, if it is cut.
        self._scatter: Optional[Tuple[int, Scatter]] = None
        # The active channels of the activation flowing into the next
        # layer, and its full channel count (None: the model's input).
        kept: Optional[np.ndarray] = None
        channels = 0
        for position, layer in enumerate(model.layers):
            if type(layer) not in _NEURON_LAYERS:
                self._plan.append(None)
                continue
            rows = (np.flatnonzero(active[layer.name])
                    if layer.name in active
                    else np.arange(layer.num_neurons))
            columns = None
            if kept is not None:
                # Behind a Flatten each channel is a block of h*w inputs.
                block = layer.weight.data.shape[1] // channels
                columns = (kept[:, np.newaxis] * block
                           + np.arange(block)).reshape(-1)
            for param in layer.parameters():
                self._index[param.name] = (rows, columns)
            self._plan.append((rows, columns))
            kept, channels = rows, layer.num_neurons
            self._scatter = None
            if len(rows) < layer.num_neurons:
                self._scatter = (position, Scatter(
                    rows, layer.num_neurons, name=f"{layer.name}/scatter"))

    @cached_property
    def model(self) -> Sequential:
        """The compact model (weights cut from the full model's own)."""
        layers: List[Layer] = []
        for position, (layer, cut) in enumerate(zip(self._full.layers,
                                                    self._plan)):
            layers.append(_resized(layer) if cut is None
                          else _resized(layer, *cut))
            if self._scatter is not None and self._scatter[0] == position:
                layers.append(self._scatter[1])
        return Sequential(layers, name=self._full.name)

    def gather(self, weights: Mapping[str, np.ndarray]
               ) -> Dict[str, np.ndarray]:
        """The compact model's weights (and :class:`Scatter` index) cut
        from full-size ``weights``, refused as ``set_weights`` refuses."""
        self._full.check_weights(weights)
        compact = {name: _gather(np.asarray(weights[name]), rows, columns)
                   for name, (rows, columns) in self._index.items()}
        if self._scatter is not None:
            compact.update(self._scatter[1].buffers())
        return compact

    def scatter(self, compact: Mapping[str, np.ndarray],
                weights: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Full-size ``weights`` with the compact model's entries replaced
        by ``compact``'s (trained) values; every other entry is a copy."""
        full = {}
        for name, value in weights.items():
            value = np.array(value)
            if name in self._index:
                rows, columns = self._index[name]
                if columns is None or value.ndim == 1:
                    value[rows] = compact[name]
                else:
                    value[np.ix_(rows, columns)] = compact[name]
            full[name] = value
        return full
