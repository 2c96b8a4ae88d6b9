"""Random partial-model training (the paper's "Random" baseline, ref. [12]).

Following Caldas et al.'s federated dropout, each straggler trains a
*random* subset of neurons of the expected model volume every cycle.  The
collaboration stays synchronous (the shrunk stragglers keep up with the
pace), but the selection ignores neuron contributions, provides no explicit
rotation guarantee and uses plain sample-count aggregation — the three
ingredients Helios adds on top.
"""

from __future__ import annotations

from ..core.straggler_aware import StragglerAwareStrategy
from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome
from ..nn.masking import ModelMask

__all__ = ["RandomMaskingStrategy"]


class RandomMaskingStrategy(StragglerAwareStrategy):
    """Synchronous FL with uniformly random partial models on stragglers."""

    name = "Random"

    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        # Draw the straggler masks in client order, preserving the RNG
        # stream of the historical serial loop.
        stragglers = set(self.straggler_indices())
        masks = {
            client_index: ModelMask.random(
                sim.server.global_model,
                self.layer_fractions(sim, client_index), rng=self.rng)
            for client_index in sim.client_indices()
            if client_index in stragglers
        }
        return self.synchronous_cycle(cycle, sim, masks)[1]
