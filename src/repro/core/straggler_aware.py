"""The straggler-aware base every compared strategy shares (Sec. IV-B/IV-C).

Helios and its baselines (Syn. FL, Asyn. FL, AFO, Random, Fixed Pruning,
S.T. Only) are compared fairly only if every method sees the same
stragglers and the same expected training volumes.
:class:`StragglerAwareStrategy` is the one copy of the code that decides
both, during ``setup``: it identifies the stragglers (resource or time
path), sizes their volumes (resource or levels policy) and admits each
one — and later each straggling newcomer — through one hook.  Differences
in the results then come purely from the collaboration scheme, matching
the paper's experimental protocol.

It also closes a synchronous cycle once, for every strategy that waits
for all of its clients: :meth:`StragglerAwareStrategy.synchronous_cycle`
trains and folds the active clients with the caller's masks and weights
and reports the cycle under one contract.  ``duration_s`` is the slowest
client the strategy *scheduled*, with its mask, so a substrate failure
never moves the simulated clock; the loss, participant count and
straggler fraction cover the updates that were *delivered*; a cycle a
``degrade`` failover emptied reports a loss of 0.0 and a straggler
fraction of 1.0.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..fl.client import FLClient, TrainingSummary
from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome, FederatedStrategy
from ..nn.masking import ModelMask
from .scalability import DynamicJoinManager, JoinDecision
from .straggler import StragglerIdentifier, StragglerReport
from .targets import OptimizationTargetPolicy, VolumeAssignment

__all__ = ["StragglerAwareStrategy"]


def _samples_per_cycle(sim: FederatedSimulation, client: FLClient) -> int:
    """Samples one local cycle of ``client`` processes on ``sim``."""
    return max(1, int(round(client.num_samples * client.config.local_epochs
                            * sim.workload_scale)))


class StragglerAwareStrategy(FederatedStrategy):
    """Base class: identifies stragglers and sizes their volumes in setup."""

    name = "straggler-aware"
    #: Straggler identification path: ``"resource"`` or ``"time"``.
    identification = "resource"
    #: Volume policy: ``"resource"`` (cost-model search) or ``"levels"``.
    volume_policy = "resource"

    def __init__(self, straggler_top_k: Optional[int] = None,
                 slowdown_threshold: float = 1.5,
                 min_volume: float = 0.1, pace_slack: float = 1.1,
                 seed: int = 0) -> None:
        self.straggler_top_k = straggler_top_k
        self.slowdown_threshold = slowdown_threshold
        self.min_volume = min_volume
        self.pace_slack = pace_slack
        self.seed = seed
        self.report: Optional[StragglerReport] = None
        self.assignment: Optional[VolumeAssignment] = None
        self.volumes: Dict[int, float] = {}
        self.join_decisions: List[JoinDecision] = []
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # identification, volumes and admission
    # ------------------------------------------------------------------ #
    def setup(self, sim: FederatedSimulation) -> None:
        model = sim.server.global_model
        devices = [client.device for client in sim.clients]
        samples = [_samples_per_cycle(sim, client) for client in sim.clients]
        batch_size = sim.clients[0].config.batch_size
        identifier = StragglerIdentifier(
            model, sim.input_shape,
            samples_per_cycle=int(np.median(samples)) if samples else 1,
            batch_size=batch_size,
            slowdown_threshold=self.slowdown_threshold)
        if self.identification == "resource":
            self.report = identifier.identify_by_resources(
                devices, top_k=self.straggler_top_k)
        else:
            self.report = identifier.identify_by_time(
                devices, top_k=self.straggler_top_k, rng=self.rng)
        policy = OptimizationTargetPolicy(
            model, sim.input_shape, batch_size=batch_size,
            min_volume=self.min_volume, pace_slack=self.pace_slack)
        if self.volume_policy == "resource":
            self.assignment = policy.assign_resource_adapted(
                self.report, devices,
                samples_per_cycle=dict(enumerate(samples)))
        else:
            self.assignment = policy.assign_predefined_levels(self.report)
        self.volumes = dict(self.assignment.volumes)
        for client_index in self.report.straggler_indices:
            self._admit_straggler(sim, client_index)

    def _admit_straggler(self, sim: FederatedSimulation,
                         client_index: int) -> None:
        """Prepare what a straggler trains with beyond its volume (called
        for each identified straggler and each straggling newcomer);
        the base needs nothing more."""

    def register_new_client(self, sim: FederatedSimulation,
                            client: FLClient) -> JoinDecision:
        """Admit a device that joins after setup (paper Sec. VI-C).

        The client is added to the simulation, profiled against the current
        collaboration pace and — if it would straggle — given a volume and
        admitted, so it participates from the next cycle on.
        """
        if self.report is None:
            raise RuntimeError("setup() must run before clients can join")
        client_index = sim.add_client(client)
        manager = DynamicJoinManager(
            sim.server.global_model, sim.input_shape,
            batch_size=client.config.batch_size,
            slowdown_threshold=self.slowdown_threshold,
            min_volume=self.min_volume, pace_slack=self.pace_slack)
        decision = manager.evaluate_device(
            client.device, samples_per_cycle=_samples_per_cycle(sim, client),
            reference_seconds=self.report.reference_seconds)
        self.join_decisions.append(decision)
        cycle_seconds = self.report.cycle_seconds
        cycle_seconds[client_index] = decision.expected_cycle_seconds
        self.report.ranking = sorted(cycle_seconds,
                                     key=lambda idx: -cycle_seconds[idx])
        if decision.is_straggler:
            self.report.straggler_indices.append(client_index)
            self.report.straggler_indices.sort()
            self.volumes[client_index] = decision.volume
            self._admit_straggler(sim, client_index)
        return decision

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def straggler_indices(self) -> List[int]:
        """Indices of the identified stragglers."""
        if self.report is None:
            return []
        return list(self.report.straggler_indices)

    def capable_indices(self, sim: FederatedSimulation) -> List[int]:
        """Indices of the capable (non-straggler) devices."""
        stragglers = set(self.straggler_indices())
        return [index for index in sim.client_indices()
                if index not in stragglers]

    def capable_pace_seconds(self, sim: FederatedSimulation) -> float:
        """Cycle duration of the capable devices (the collaboration pace)."""
        capable = self.capable_indices(sim)
        indices = capable if capable else sim.client_indices()
        return max(sim.client_cycle_seconds(index) for index in indices)

    def layer_fractions(self, sim: FederatedSimulation,
                        client_index: int) -> Dict[str, float]:
        """Uniform per-layer volume fractions for one client."""
        volume = self.volumes.get(client_index, 1.0)
        return {layer.name: volume
                for layer in sim.server.global_model.neuron_layers()}

    # ------------------------------------------------------------------ #
    # the synchronous cycle
    # ------------------------------------------------------------------ #
    def synchronous_cycle(self, cycle: int, sim: FederatedSimulation,
                          masks: Optional[Mapping[int, ModelMask]] = None,
                          client_weights: Optional[Sequence[float]] = None
                          ) -> Tuple[List[TrainingSummary], CycleOutcome]:
        """Train and fold every active client from the current global
        model, in one batch, and report the cycle (see the module
        docstring for the contract).

        ``masks`` maps a client to the sub-model it trains (absent: the
        full model); ``client_weights``, parallel to
        ``sim.client_indices()``, replaces the sample-count fold factors.
        Returns the delivered summaries, in client order, and the outcome.
        """
        indices = sim.client_indices()
        masks = masks or {}
        summaries = sim.train_and_aggregate(
            indices, masks=masks, client_weights=client_weights,
            base_cycle=cycle)
        duration = max(sim.client_cycle_seconds(index, mask=masks.get(index))
                       for index in indices)
        fractions = [masks[summary.index].active_fraction()
                     for summary in summaries if summary.index in masks]
        return summaries, CycleOutcome(
            duration_s=float(duration),
            participating_clients=len(summaries),
            mean_train_loss=(float(np.mean([summary.train_loss
                                            for summary in summaries]))
                             if summaries else 0.0),
            straggler_fraction_trained=(float(np.mean(fractions))
                                        if fractions else 1.0),
        )
