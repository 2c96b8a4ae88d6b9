"""AFO — asynchronous federated optimization (Xie et al., paper ref. [6]).

AFO improves plain asynchronous FL by discounting stale updates: when an
update arrives that was computed from the global model of ``τ`` cycles ago,
it is mixed into the current global model with weight

    α_t = α · (1 + staleness)^(-a)

instead of being averaged at full strength.  Fresh updates (staleness 0)
are mixed with weight ``α``.  This reduces — but does not eliminate — the
staleness damage of asynchronous stragglers, which is how the paper
positions AFO in its comparison.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..fl.client import ClientUpdate
from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome
from .async_fl import AsynchronousFLStrategy

__all__ = ["AFOStrategy"]


class AFOStrategy(AsynchronousFLStrategy):
    """Staleness-aware asynchronous aggregation."""

    name = "AFO"

    def __init__(self, mixing_alpha: float = 0.9,
                 staleness_exponent: float = 1.0, **kwargs) -> None:
        """
        Parameters
        ----------
        mixing_alpha:
            Base mixing weight ``α`` of a fresh update.
        staleness_exponent:
            Exponent ``a`` of the polynomial staleness discount.
        """
        super().__init__(**kwargs)
        if not 0.0 < mixing_alpha <= 1.0:
            raise ValueError("mixing_alpha must be in (0, 1]")
        if staleness_exponent < 0:
            raise ValueError("staleness_exponent must be non-negative")
        self.mixing_alpha = mixing_alpha
        self.staleness_exponent = staleness_exponent

    # ------------------------------------------------------------------ #
    def _staleness_weight(self, staleness: int) -> float:
        return self.mixing_alpha * (1.0 + staleness) ** (-self.staleness_exponent)

    def _mix_into_global(self, sim: FederatedSimulation,
                         update_weights: Dict[str, np.ndarray],
                         mixing: float) -> None:
        current = sim.server.get_global_weights()
        blended = {
            name: (1.0 - mixing) * current[name]
            + mixing * np.asarray(update_weights[name])
            for name in current
        }
        sim.server.set_global_weights(blended)

    # ------------------------------------------------------------------ #
    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        global_weights = sim.server.get_global_weights()
        capable = self.capable_indices(sim)

        losses: List[float] = []

        # A ``degrade`` failover leaves ``None`` at a dropped client's
        # position; only survivors are mixed in.
        fresh_updates: List[ClientUpdate] = [
            update for update in sim.train_clients(
                capable, weights=global_weights, base_cycle=cycle)
            if update is not None]
        durations: List[float] = [sim.client_cycle_seconds(client_index)
                                  for client_index in capable]
        losses.extend(update.train_loss for update in fresh_updates)

        # Fresh capable updates: aggregate them and mix with full alpha.
        if fresh_updates:
            from ..fl.aggregation import aggregate_full
            averaged = aggregate_full(fresh_updates)
            self._mix_into_global(sim, averaged,
                                  self._staleness_weight(0))
            sim.server.current_cycle += 1

        # Straggler deliveries: the due trainings run as one batch (each
        # from its own stale snapshot, so they are order-independent), the
        # staleness-discounted mixing stays sequential in client order.  A
        # dropped delivery stays pending, to be delivered again next cycle.
        delivery_jobs = self.due_deliveries(cycle, sim, global_weights)
        stale_deliveries = 0
        for job, update in zip(delivery_jobs, sim.run_jobs(delivery_jobs)):
            if update is None:
                continue
            del self.pending[job.index]
            stale_deliveries += 1
            staleness = cycle - update.base_cycle
            self._mix_into_global(sim, update.weights,
                                  self._staleness_weight(staleness))
            losses.append(update.train_loss)

        duration = (float(max(durations)) if durations
                    else self.capable_pace_seconds(sim))
        mean_loss = float(np.mean(losses)) if losses else 0.0
        return CycleOutcome(
            duration_s=duration,
            participating_clients=len(fresh_updates) + stale_deliveries,
            mean_train_loss=mean_loss,
            straggler_fraction_trained=1.0,
            extra={"stale_deliveries": float(stale_deliveries)},
        )
