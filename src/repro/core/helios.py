"""The Helios collaboration strategy (paper Sec. III–VI).

:class:`HeliosStrategy` wires every piece of the framework together:

1. **Setup** — identify potential stragglers (time- or resource-based),
   determine each straggler's expected model volume, and create its
   soft-training selector and rotation tracker.
2. **Every cycle** — capable devices train the full model; each straggler
   trains the subset of neurons chosen from last cycle's contributions
   (top-``Ps`` by contribution + rotating random remainder + forced
   rejoins), so its cycle time matches the collaboration pace.
3. **Aggregation** — neuron-granular weighted averaging with the
   heterogeneity weights ``α_n = r_n / Σ r_k``.
4. **Pace adaptation** — during the first cycles the straggler volumes are
   nudged so shrunk-cycle times converge to the capable devices' pace
   (paper Sec. IV-C, "dynamically adjusted to an optimal point during the
   first several training cycles").
5. **Scalability** — devices joining mid-run are profiled and admitted
   with an appropriate volume (Sec. VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome
from ..nn.masking import ModelMask
from .aggregation import heterogeneity_ratios, heterogeneity_weights
from .rotation import NeuronRotationTracker
from .selection import SoftTrainingSelector
from .straggler_aware import StragglerAwareStrategy

__all__ = ["HeliosConfig", "HeliosStrategy"]


@dataclass
class HeliosConfig:
    """Hyper-parameters of the Helios framework."""

    #: ``Ps`` — share of each selection filled by top-contribution neurons.
    top_share: float = 0.1
    #: Straggler identification path: ``"resource"`` (white box) or
    #: ``"time"`` (black box).
    identification: str = "resource"
    #: Flag exactly this many slowest devices as stragglers (None = use the
    #: relative slowdown threshold).
    straggler_top_k: Optional[int] = None
    #: Relative threshold for the straggler decision.
    slowdown_threshold: float = 1.5
    #: Volume policy: ``"resource"`` (cost-model search) or ``"levels"``.
    volume_policy: str = "resource"
    #: Lower bound on any straggler volume.
    min_volume: float = 0.1
    #: Pace slack multiplier for volume sizing.
    pace_slack: float = 1.1
    #: Aggregation: ``"heterogeneous"`` (Eq. 10) or ``"fedavg"``
    #: (the paper's "S.T. Only" ablation).
    aggregation: str = "heterogeneous"
    #: Multiply the heterogeneity weights by FedAvg sample-count weights.
    combine_sample_counts: bool = True
    #: Additive margin of the forced-rejoin threshold.
    rejoin_margin: float = 1.0
    #: Number of initial cycles with active volume adaptation.
    adapt_volume_cycles: int = 3
    #: Relative volume step of the pace adaptation.
    volume_adapt_rate: float = 0.15
    #: RNG seed for the rotating random selection.
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.top_share <= 1.0:
            raise ValueError("top_share must be in [0, 1]")
        if self.identification not in ("resource", "time"):
            raise ValueError("identification must be 'resource' or 'time'")
        if self.volume_policy not in ("resource", "levels"):
            raise ValueError("volume_policy must be 'resource' or 'levels'")
        if self.aggregation not in ("heterogeneous", "fedavg"):
            raise ValueError("aggregation must be 'heterogeneous' or 'fedavg'")
        if not 0.0 < self.min_volume <= 1.0:
            raise ValueError("min_volume must be in (0, 1]")
        if self.adapt_volume_cycles < 0:
            raise ValueError("adapt_volume_cycles must be non-negative")
        if not 0.0 <= self.volume_adapt_rate < 1.0:
            raise ValueError("volume_adapt_rate must be in [0, 1)")


class HeliosStrategy(StragglerAwareStrategy):
    """Heterogeneity-aware FL with soft-training (the paper's contribution).

    Identification, volumes, admission and the synchronous cycle are the
    :class:`~repro.core.straggler_aware.StragglerAwareStrategy` the
    baselines share; Helios adds mask selection, Eq. 10's weights, the
    rotation and Eq. 1 bookkeeping and the pace adaptation.
    """

    name = "Helios"

    def __init__(self, config: Optional[HeliosConfig] = None) -> None:
        self.config = config or HeliosConfig()
        super().__init__(straggler_top_k=self.config.straggler_top_k,
                         slowdown_threshold=self.config.slowdown_threshold,
                         min_volume=self.config.min_volume,
                         pace_slack=self.config.pace_slack,
                         seed=self.config.seed)
        self.identification = self.config.identification
        self.volume_policy = self.config.volume_policy
        if self.config.aggregation == "fedavg":
            self.name = "S.T. Only"
        self.selectors: Dict[int, SoftTrainingSelector] = {}
        self.trackers: Dict[int, NeuronRotationTracker] = {}
        self.contributions: Dict[int, Dict[str, np.ndarray]] = {}
        self._sim_id: Optional[int] = None

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #
    def setup(self, sim: FederatedSimulation) -> None:
        if self.report is not None and self._sim_id == id(sim):
            # Re-running the same simulation (e.g. after a device joined via
            # :meth:`register_new_client`): keep the existing straggler
            # state instead of re-identifying from scratch.
            return
        self._sim_id = id(sim)
        self.selectors.clear()
        self.trackers.clear()
        self.contributions.clear()
        super().setup(sim)

    def _admit_straggler(self, sim: FederatedSimulation,
                         client_index: int) -> None:
        """A straggler's soft-training selector and rotation tracker."""
        fractions = self.layer_fractions(sim, client_index)
        self.selectors[client_index] = SoftTrainingSelector(
            sim.server.global_model, fractions,
            top_share=self.config.top_share,
            rng=np.random.default_rng(self.seed + 17 * (client_index + 1)))
        self.trackers[client_index] = NeuronRotationTracker(
            sim.server.global_model, fractions,
            threshold_margin=self.config.rejoin_margin)

    def is_straggler(self, client_index: int) -> bool:
        """Whether a client is currently treated as a straggler."""
        return client_index in self.selectors

    # ------------------------------------------------------------------ #
    # per-cycle execution
    # ------------------------------------------------------------------ #
    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        if self.report is None:
            raise RuntimeError("setup() must run before execute_cycle()")
        indices = sim.client_indices()

        # Phase 1 — draw every straggler's soft-training mask.  This stays
        # a serial in-order loop so the selector RNG streams are consumed
        # exactly as in the historical per-client loop.
        masks: Dict[int, ModelMask] = {}
        for client_index in indices:
            if self.is_straggler(client_index):
                forced = self.trackers[client_index].overdue_neurons()
                masks[client_index] = self.selectors[client_index].select(
                    contributions=self.contributions.get(client_index),
                    forced=forced)

        # Phase 2 — Eq. 10's weights need only the masks and the sample
        # counts, so they ship with the batch; the whole cycle trains and
        # folds where the clients live, and each masked job's Eq. 1
        # contributions come back on its summary.
        weights = None
        if self.config.aggregation == "heterogeneous":
            weights = heterogeneity_weights(
                heterogeneity_ratios([masks.get(index) for index in indices]),
                [sim.client(index).num_samples for index in indices],
                combine_with_sample_counts=self.config.combine_sample_counts)
        summaries, outcome = self.synchronous_cycle(cycle, sim, masks,
                                                    weights)

        # Phase 3 — per-client bookkeeping on the clients that trained (a
        # client a degraded cycle dropped keeps last cycle's state).
        durations: Dict[int, float] = {}
        capable_durations: List[float] = []
        for summary in summaries:
            mask = masks.get(summary.index)
            duration = sim.client_cycle_seconds(summary.index, mask=mask)
            if mask is not None:
                self.trackers[summary.index].record_cycle(mask)
                self.contributions[summary.index] = summary.contributions
            else:
                capable_durations.append(duration)
            durations[summary.index] = duration

        capable_pace = max(capable_durations, default=0.0)
        if cycle <= self.config.adapt_volume_cycles and capable_durations:
            self._adapt_volumes(sim, durations, capable_pace)
        outcome.extra["capable_pace_s"] = float(capable_pace)
        return outcome

    # ------------------------------------------------------------------ #
    # pace adaptation (first few cycles)
    # ------------------------------------------------------------------ #
    def _adapt_volumes(self, sim: FederatedSimulation,
                       durations: Dict[int, float],
                       capable_pace: float) -> None:
        pace = capable_pace * self.pace_slack
        for client_index in list(self.selectors):
            duration = durations.get(client_index)
            if duration is None:
                continue
            volume = self.volumes.get(client_index, 1.0)
            if duration > pace:
                volume *= (1.0 - self.config.volume_adapt_rate)
            elif duration < pace / (1.0 + self.config.volume_adapt_rate):
                volume *= (1.0 + self.config.volume_adapt_rate)
            volume = float(np.clip(volume, self.min_volume, 1.0))
            if volume != self.volumes.get(client_index):
                self.volumes[client_index] = volume
                fractions = self.layer_fractions(sim, client_index)
                self.selectors[client_index].set_volume(fractions)
                self.trackers[client_index].update_volume(fractions)
