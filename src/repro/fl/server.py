"""Federated-learning aggregation server."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..nn.model import Sequential
from .aggregation import (ModelStructure, PartialAggregate, aggregate_full,
                          aggregate_partial, finalize_partials)
from .client import ClientUpdate

__all__ = ["FLServer"]


class FLServer:
    """Holds the global model and applies aggregation rules.

    The server is strategy-agnostic: baselines and Helios decide *which*
    updates to aggregate and with *which* per-device weights; the server
    provides the mechanics (weighted full or neuron-granular partial
    aggregation) and global-model bookkeeping.
    """

    def __init__(self, model_factory: Callable[[], Sequential],
                 test_dataset: Optional[Dataset] = None) -> None:
        self.model_factory = model_factory
        self.global_model = model_factory()
        self.structure = ModelStructure.from_model(self.global_model)
        self.test_dataset = test_dataset
        self.current_cycle = 0

    # ------------------------------------------------------------------ #
    # global-model access
    # ------------------------------------------------------------------ #
    def get_global_weights(self) -> Dict[str, np.ndarray]:
        """Copy of the current global model weights."""
        return self.global_model.get_weights()

    def set_global_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Replace the global model weights."""
        self.global_model.set_weights(weights)

    def num_parameters(self) -> int:
        """Size of the global model (parameter count)."""
        return self.global_model.num_parameters()

    # ------------------------------------------------------------------ #
    # aggregation entry points
    # ------------------------------------------------------------------ #
    def aggregate(self, updates: Sequence[ClientUpdate],
                  client_weights: Optional[Sequence[float]] = None,
                  partial: bool = True) -> Dict[str, np.ndarray]:
        """Aggregate ``updates`` into a new global model and install it.

        Parameters
        ----------
        updates:
            The client updates collected this cycle.
        client_weights:
            Optional per-update weights (default: sample counts).
        partial:
            Use neuron-granular aggregation (required whenever any update
            carries a mask); ``False`` forces plain FedAvg.
        """
        if not updates:
            raise ValueError("cannot aggregate an empty update set")
        has_masks = any(update.mask is not None for update in updates)
        if partial and has_masks:
            new_weights = aggregate_partial(
                self.get_global_weights(), updates, self.structure,
                client_weights=client_weights)
        else:
            new_weights = aggregate_full(updates,
                                         client_weights=client_weights)
        self.set_global_weights(new_weights)
        self.current_cycle += 1
        return new_weights

    def install_partials(self, partials: Sequence[PartialAggregate]
                         ) -> Dict[str, np.ndarray]:
        """Combine shard-side partial aggregates into a new global model.

        The parent half of hierarchical aggregation: each shard folds its
        residents' updates locally (:func:`~repro.fl.aggregation.fold_updates`)
        and ships one :class:`~repro.fl.aggregation.PartialAggregate`;
        combining them here is bit-identical to :meth:`aggregate` over the
        same updates because the fold's per-level sums are exact and hence
        partition-independent.  Neurons covered by zero updates keep
        their current global value.
        """
        if not partials:
            raise ValueError("cannot combine an empty set of partial "
                             "aggregates")
        new_weights = finalize_partials(self.get_global_weights(), partials,
                                        structure=self.structure)
        self.set_global_weights(new_weights)
        self.current_cycle += 1
        return new_weights

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, dataset: Optional[Dataset] = None,
                 batch_size: int = 64) -> float:
        """Global-model accuracy on ``dataset`` (defaults to the test set)."""
        target = dataset if dataset is not None else self.test_dataset
        if target is None:
            raise ValueError("no evaluation dataset available")
        self.global_model.clear_neuron_masks()
        return self.global_model.evaluate_accuracy(
            target.images, target.labels, batch_size=batch_size)
