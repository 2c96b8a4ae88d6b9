"""Fixed structured pruning (Jiang et al. style, paper ref. [14]).

Each straggler's model is pruned *once* to the expected volume and the same
subnetwork trains every cycle.  The collaboration is synchronous and fast,
but — as the paper argues in Sec. II-B and V-A — the permanently pruned
neurons never contribute again, which caps the straggler's information
capacity and hurts global convergence.  This baseline isolates exactly that
effect against Helios' rotating selection.
"""

from __future__ import annotations

from typing import Dict

from ..core.straggler_aware import StragglerAwareStrategy
from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome
from ..nn.masking import ModelMask

__all__ = ["FixedPruningStrategy"]


class FixedPruningStrategy(StragglerAwareStrategy):
    """Synchronous FL with a permanently pruned model on each straggler."""

    name = "Fixed Pruning"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fixed_masks: Dict[int, ModelMask] = {}

    def setup(self, sim: FederatedSimulation) -> None:
        self.fixed_masks = {}
        super().setup(sim)

    def _admit_straggler(self, sim: FederatedSimulation,
                         client_index: int) -> None:
        """Prune the straggler once, to its volume."""
        self.fixed_masks[client_index] = ModelMask.random(
            sim.server.global_model, self.layer_fractions(sim, client_index),
            rng=self.rng)

    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        return self.synchronous_cycle(cycle, sim, self.fixed_masks)[1]
