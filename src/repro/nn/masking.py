"""Structured (per-neuron) model masks.

A :class:`ModelMask` records, for every maskable layer of a model, which
output neurons participate in the current training cycle.  It is the data
structure exchanged between Helios' neuron-selection policy, training
(which cuts the active sub-network out of the model,
:mod:`repro.nn.compact`, or — for a model that cannot be cut — applies
the masks during forward/backward, :meth:`ModelMask.apply`), and the
server-side aggregation (which needs to know which neurons each device
actually updated).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

from .model import Sequential

__all__ = ["ModelMask"]


class ModelMask:
    """Boolean neuron masks keyed by maskable-layer name."""

    def __init__(self, masks: Mapping[str, np.ndarray]) -> None:
        self._masks: Dict[str, np.ndarray] = {
            name: np.asarray(mask, dtype=bool).copy()
            for name, mask in masks.items()
        }

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def full(cls, model: Sequential) -> "ModelMask":
        """Mask with every neuron active (the full model)."""
        return cls({layer.name: np.ones(layer.num_neurons, dtype=bool)
                    for layer in model.neuron_layers()})

    @classmethod
    def empty(cls, model: Sequential) -> "ModelMask":
        """Mask with no neuron active (useful as an accumulator)."""
        return cls({layer.name: np.zeros(layer.num_neurons, dtype=bool)
                    for layer in model.neuron_layers()})

    @classmethod
    def random(cls, model: Sequential, fractions: Mapping[str, float],
               rng: np.random.Generator) -> "ModelMask":
        """Randomly activate a fraction of each layer's neurons.

        At least one neuron per layer is always kept so the network never
        degenerates to a disconnected graph.
        """
        masks: Dict[str, np.ndarray] = {}
        for layer in model.neuron_layers():
            fraction = float(fractions.get(layer.name, 1.0))
            if not 0.0 < fraction <= 1.0:
                raise ValueError(
                    f"fraction for layer {layer.name!r} must be in (0, 1]")
            count = max(1, int(round(fraction * layer.num_neurons)))
            chosen = rng.choice(layer.num_neurons, size=count, replace=False)
            mask = np.zeros(layer.num_neurons, dtype=bool)
            mask[chosen] = True
            masks[layer.name] = mask
        return cls(masks)

    # ------------------------------------------------------------------ #
    # dict-like access
    # ------------------------------------------------------------------ #
    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self._masks

    def __getitem__(self, layer_name: str) -> np.ndarray:
        return self._masks[layer_name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Iterate over ``(layer_name, mask)`` pairs."""
        return iter(self._masks.items())

    def layer_names(self) -> Tuple[str, ...]:
        """Names of the layers covered by this mask."""
        return tuple(self._masks)

    def as_dict(self) -> Dict[str, np.ndarray]:
        """Copy of the underlying mapping."""
        return {name: mask.copy() for name, mask in self._masks.items()}

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def active_counts(self) -> Dict[str, int]:
        """Number of active neurons per layer."""
        return {name: int(mask.sum()) for name, mask in self._masks.items()}

    def total_neurons(self) -> int:
        """Total neurons covered by the mask."""
        return sum(mask.size for mask in self._masks.values())

    def total_active(self) -> int:
        """Total active neurons."""
        return sum(int(mask.sum()) for mask in self._masks.values())

    def active_fraction(self) -> float:
        """Overall fraction of active neurons."""
        total = self.total_neurons()
        if total == 0:
            return 1.0
        return self.total_active() / total

    def layer_fractions(self) -> Dict[str, float]:
        """Per-layer active fraction."""
        return {name: (float(mask.sum()) / mask.size if mask.size else 1.0)
                for name, mask in self._masks.items()}

    # ------------------------------------------------------------------ #
    # set algebra
    # ------------------------------------------------------------------ #
    def union(self, other: "ModelMask") -> "ModelMask":
        """Neuron-wise OR of two masks over the same layers."""
        self._check_compatible(other)
        return ModelMask({name: self._masks[name] | other[name]
                          for name in self._masks})

    def intersection(self, other: "ModelMask") -> "ModelMask":
        """Neuron-wise AND of two masks over the same layers."""
        self._check_compatible(other)
        return ModelMask({name: self._masks[name] & other[name]
                          for name in self._masks})

    def _check_compatible(self, other: "ModelMask") -> None:
        if set(self._masks) != set(other._masks):
            raise ValueError("masks cover different layers")
        for name in self._masks:
            if self._masks[name].shape != other[name].shape:
                raise ValueError(f"mask size mismatch for layer {name!r}")

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def apply(self, model: Sequential) -> None:
        """Install these masks on the model's maskable layers."""
        model.set_neuron_masks({name: mask
                                for name, mask in self._masks.items()})

    def copy(self) -> "ModelMask":
        """Deep copy."""
        return ModelMask(self._masks)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ModelMask(layers={len(self._masks)}, "
                f"active={self.total_active()}/{self.total_neurons()})")
