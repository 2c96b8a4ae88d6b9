"""Asynchronous federated learning (the paper's "Asyn. FL" baseline).

Capable devices aggregate every cycle without waiting for stragglers.  A
straggler keeps training the full model in the background: it snapshots the
global model when it starts, spends several capable-device cycles on its
local training (the ratio of its full-model cycle time to the collaboration
pace), and only then delivers an update — computed from the *stale*
snapshot — which is merged in like any other update.  This reproduces both
the speed advantage and the information-degradation / staleness problems
the paper's Fig. 2 and Sec. II-B describe.

A cycle is one :meth:`~repro.fl.simulation.FederatedSimulation.train_and_aggregate`:
the fresh trainings start from the current global model, the due stale
deliveries from their own snapshots, and the fold is sample-count FedAvg
over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..fl.client import TrainingSummary
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

    def cycle_outcome(self, sim: FederatedSimulation, capable: List[int],
                      summaries: List[TrainingSummary]) -> CycleOutcome:
        """Retire the pending jobs ``summaries`` delivered and report the
        cycle.  A delivery a ``degrade`` failover dropped has no summary
        and stays pending, to be delivered again next cycle from the same
        snapshot."""
        delivered = [summary.index for summary in summaries
                     if summary.index in self.pending]
        for client_index in delivered:
            del self.pending[client_index]
        mean_loss = (float(np.mean([summary.train_loss
                                    for summary in summaries]))
                     if summaries else 0.0)
        # The cycle pace is set by the capable devices only.
        duration = (max(sim.client_cycle_seconds(client_index)
                        for client_index in capable) if capable
                    else self.capable_pace_seconds(sim))
        return CycleOutcome(
            duration_s=float(duration),
            participating_clients=len(summaries),
            mean_train_loss=mean_loss,
            straggler_fraction_trained=1.0,
            extra={"stale_deliveries": float(len(delivered))},
        )

    # ------------------------------------------------------------------ #
    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        capable = self.capable_indices(sim)
        deliveries = self.due_deliveries(
            cycle, sim, sim.server.get_global_weights())
        summaries: List[TrainingSummary] = []
        if capable or deliveries:
            summaries = sim.train_and_aggregate(capable, base_cycle=cycle,
                                                stale=deliveries)
        return self.cycle_outcome(sim, capable, summaries)
