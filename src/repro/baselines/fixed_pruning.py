"""Fixed structured pruning (Jiang et al. style, paper ref. [14]).

Each straggler's model is pruned *once* to the expected volume and the same
subnetwork trains every cycle.  The collaboration is synchronous and fast,
but — as the paper argues in Sec. II-B and V-A — the permanently pruned
neurons never contribute again, which caps the straggler's information
capacity and hurts global convergence.  This baseline isolates exactly that
effect against Helios' rotating selection.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..fl.client import TrainingSummary
from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome
from ..nn.masking import ModelMask
from .common import StragglerAwareStrategy

__all__ = ["FixedPruningStrategy"]


class FixedPruningStrategy(StragglerAwareStrategy):
    """Synchronous FL with a permanently pruned model on each straggler."""

    name = "Fixed Pruning"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fixed_masks: Dict[int, ModelMask] = {}

    def setup(self, sim: FederatedSimulation) -> None:
        super().setup(sim)
        self.fixed_masks = {}
        for client_index in self.straggler_indices():
            fractions = self.layer_fractions(sim, client_index)
            self.fixed_masks[client_index] = ModelMask.random(
                sim.server.global_model, fractions, rng=self.rng)

    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        indices = sim.client_indices()
        summaries: List[TrainingSummary] = sim.train_and_aggregate(
            indices, masks=self.fixed_masks, base_cycle=cycle, partial=True)
        durations: List[float] = [
            sim.client_cycle_seconds(client_index,
                                     mask=self.fixed_masks.get(client_index))
            for client_index in indices
        ]
        straggler_fractions: List[float] = [
            mask.active_fraction() for mask in self.fixed_masks.values()]

        mean_loss = float(np.mean([summary.train_loss
                                   for summary in summaries]))
        return CycleOutcome(
            duration_s=float(max(durations)),
            participating_clients=len(summaries),
            mean_train_loss=mean_loss,
            straggler_fraction_trained=(float(np.mean(straggler_fractions))
                                        if straggler_fractions else 1.0),
        )
