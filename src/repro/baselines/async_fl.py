"""Asynchronous federated learning (the paper's "Asyn. FL" baseline).

Capable devices aggregate every cycle without waiting for stragglers.  A
straggler keeps training the full model in the background: it snapshots the
global model when it starts, spends several capable-device cycles on its
local training (the ratio of its full-model cycle time to the collaboration
pace), and only then delivers an update — computed from the *stale*
snapshot — which is merged in like any other update.  This reproduces both
the speed advantage and the information-degradation / staleness problems
the paper's Fig. 2 and Sec. II-B describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..fl.client import ClientUpdate
from ..fl.executor import TrainingJob
from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome
from .common import StragglerAwareStrategy

__all__ = ["PendingJob", "AsynchronousFLStrategy"]


@dataclass
class PendingJob:
    """A straggler's in-flight local training."""

    start_cycle: int
    finish_cycle: int
    base_weights: Dict[str, np.ndarray]


class AsynchronousFLStrategy(StragglerAwareStrategy):
    """Asynchronous FL with stale straggler updates."""

    name = "Asyn. FL"

    def __init__(self, aggregation_period: Optional[int] = None,
                 **kwargs) -> None:
        """
        Parameters
        ----------
        aggregation_period:
            Force every straggler to deliver every this many cycles (the
            knob swept in the paper's Fig. 2).  ``None`` derives the period
            from the straggler's slowdown factor.
        """
        super().__init__(**kwargs)
        if aggregation_period is not None and aggregation_period < 1:
            raise ValueError("aggregation_period must be at least 1")
        self.aggregation_period = aggregation_period
        self.pending: Dict[int, PendingJob] = {}

    # ------------------------------------------------------------------ #
    def setup(self, sim: FederatedSimulation) -> None:
        super().setup(sim)
        self.pending = {}

    def straggler_period(self, sim: FederatedSimulation,
                         client_index: int) -> int:
        """Number of capable cycles one straggler training cycle spans."""
        if self.aggregation_period is not None:
            return self.aggregation_period
        pace = self.capable_pace_seconds(sim)
        straggler_time = sim.client_cycle_seconds(client_index)
        return max(1, int(np.ceil(straggler_time / max(pace, 1e-9))))

    def due_deliveries(self, cycle: int, sim: FederatedSimulation,
                       global_weights: Dict[str, np.ndarray]
                       ) -> List[TrainingJob]:
        """This cycle's stale straggler trainings, in straggler order.

        A straggler with nothing in flight starts a training from
        ``global_weights`` instead.  A delivered job stays in
        :attr:`pending` until the caller retires it.
        """
        jobs: List[TrainingJob] = []
        for client_index in self.straggler_indices():
            job = self.pending.get(client_index)
            if job is None:
                period = self.straggler_period(sim, client_index)
                self.pending[client_index] = PendingJob(
                    start_cycle=cycle,
                    finish_cycle=cycle + period - 1,
                    base_weights=global_weights,
                )
            elif cycle >= job.finish_cycle:
                jobs.append(TrainingJob(index=client_index,
                                        weights=job.base_weights,
                                        base_cycle=job.start_cycle))
        return jobs

    # ------------------------------------------------------------------ #
    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        global_weights = sim.server.get_global_weights()
        capable = self.capable_indices(sim)

        durations: List[float] = [sim.client_cycle_seconds(client_index)
                                  for client_index in capable]

        # Collect this cycle's work — fresh capable trainings plus any due
        # stale straggler deliveries — and run it as one backend batch.
        jobs: List[TrainingJob] = [
            TrainingJob(index=client_index, weights=global_weights,
                        base_cycle=cycle)
            for client_index in capable
        ]
        jobs.extend(self.due_deliveries(cycle, sim, global_weights))
        # A ``degrade`` failover leaves ``None`` at a dropped client's
        # position: only survivors aggregate, and a dropped stale
        # delivery stays pending, to be delivered again next cycle from
        # the same snapshot.
        updates: List[ClientUpdate] = []
        stale_deliveries = 0
        for job, update in zip(jobs, sim.run_jobs(jobs)):
            if update is None:
                continue
            updates.append(update)
            if job.index in self.pending:
                del self.pending[job.index]
                stale_deliveries += 1

        if updates:
            sim.server.aggregate(updates, partial=False)
        mean_loss = (float(np.mean([update.train_loss for update in updates]))
                     if updates else 0.0)
        # The cycle pace is set by the capable devices only.
        duration = (float(max(durations)) if durations
                    else self.capable_pace_seconds(sim))
        return CycleOutcome(
            duration_s=duration,
            participating_clients=len(updates),
            mean_train_loss=mean_loss,
            straggler_fraction_trained=1.0,
            extra={"stale_deliveries": float(stale_deliveries)},
        )
