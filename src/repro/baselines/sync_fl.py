"""Synchronous federated learning (the paper's "Syn. FL" baseline).

Every device — stragglers included — trains the full model every cycle and
the server waits for all of them before aggregating.  Accuracy per cycle is
the best of all baselines (nothing is dropped or shrunk), but the cycle
duration is dictated by the slowest straggler, which is exactly the
motivation example of the paper's Fig. 1.
"""

from __future__ import annotations

from ..core.straggler_aware import StragglerAwareStrategy
from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome

__all__ = ["SynchronousFLStrategy"]


class SynchronousFLStrategy(StragglerAwareStrategy):
    """Classical synchronous FedAvg over the whole fleet."""

    name = "Syn. FL"

    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        return self.synchronous_cycle(cycle, sim)[1]
