"""Optimization-target determination (paper Sec. IV-C).

After straggler identification, every straggler is assigned an *expected
model volume*: the fraction of neurons per layer it is allowed to train each
cycle, chosen so its shrunk-model cycle time matches the collaboration pace
set by the capable devices.  Two policies are provided, mirroring the paper:

* **predefined levels** — pick from a small ladder of volumes by the
  device's rank in the time index ``T`` and refine during the first cycles;
* **resource-adapted** — search the largest volume whose predicted cycle
  time fits the capable devices' pace, using the analytical cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.cost_model import TrainingCostModel
from ..hardware.device import DeviceProfile
from ..nn.model import Sequential
from .straggler import StragglerReport

__all__ = ["VolumeAssignment", "OptimizationTargetPolicy"]

DEFAULT_VOLUME_LEVELS: Tuple[float, ...] = (0.75, 0.5, 0.35, 0.25)


@dataclass
class VolumeAssignment:
    """Expected model volumes for every straggler.

    ``volumes`` maps client index to a uniform per-layer neuron fraction in
    ``(0, 1]``.  ``target_seconds`` is the collaboration pace the volumes
    were sized against.
    """

    volumes: Dict[int, float]
    target_seconds: float

    def volume_for(self, client_index: int) -> float:
        """Volume of a client (1.0 for capable devices)."""
        return self.volumes.get(client_index, 1.0)


class OptimizationTargetPolicy:
    """Compute expected model volumes for identified stragglers.

    Parameters
    ----------
    model:
        The training model (for cost estimation and layer enumeration).
    input_shape:
        Shape of one input sample.
    batch_size:
        Local mini-batch size.
    min_volume:
        Lower bound on any assigned volume; prevents degenerate models.
    pace_slack:
        Multiplicative slack on the collaboration pace: a straggler's
        shrunk cycle must fit ``pace_slack × reference_seconds``.
    volume_levels:
        The predefined volume ladder for the level-based policy (largest
        first).
    """

    def __init__(self, model: Sequential, input_shape: Tuple[int, ...],
                 batch_size: int = 32, min_volume: float = 0.1,
                 pace_slack: float = 1.1,
                 volume_levels: Sequence[float] = DEFAULT_VOLUME_LEVELS) -> None:
        if not 0.0 < min_volume <= 1.0:
            raise ValueError("min_volume must be in (0, 1]")
        if pace_slack <= 0:
            raise ValueError("pace_slack must be positive")
        if not volume_levels:
            raise ValueError("volume_levels must not be empty")
        for level in volume_levels:
            if not 0.0 < level <= 1.0:
                raise ValueError("volume levels must be in (0, 1]")
        self.model = model
        self.input_shape = tuple(input_shape)
        self.batch_size = batch_size
        self.min_volume = min_volume
        self.pace_slack = pace_slack
        self.volume_levels = tuple(sorted(volume_levels, reverse=True))

    # ------------------------------------------------------------------ #
    def assign_predefined_levels(self, report: StragglerReport
                                 ) -> VolumeAssignment:
        """Assign volumes from the predefined ladder by straggler rank.

        The slowest straggler receives the smallest level; faster
        stragglers receive progressively larger levels.  The paper refines
        these during the first few training cycles — the Helios strategy
        does that through its pace-adaptation step.
        """
        ordered = [index for index in report.ranking
                   if index in report.straggler_indices]
        volumes: Dict[int, float] = {}
        levels = list(self.volume_levels)
        for rank, client_index in enumerate(ordered):
            # Rank 0 is the slowest straggler -> smallest volume.
            level_index = min(len(levels) - 1, len(ordered) - 1 - rank)
            volumes[client_index] = max(self.min_volume, levels[level_index])
        target = self.pace_slack * report.reference_seconds
        return VolumeAssignment(volumes=volumes, target_seconds=target)

    # ------------------------------------------------------------------ #
    def assign_resource_adapted(self, report: StragglerReport,
                                devices: Sequence[DeviceProfile],
                                samples_per_cycle: Dict[int, int],
                                target_seconds: Optional[float] = None
                                ) -> VolumeAssignment:
        """Size each straggler's volume so its cycle fits the pace.

        Parameters
        ----------
        report:
            The straggler-identification report.
        devices:
            Device profiles indexed by client index.
        samples_per_cycle:
            Per-client samples processed in one local cycle.
        target_seconds:
            Collaboration pace; defaults to ``pace_slack ×`` the fastest
            device's cycle time from the report.
        """
        if target_seconds is None:
            target_seconds = self.pace_slack * report.reference_seconds
        if target_seconds <= 0:
            raise ValueError("target_seconds must be positive")
        volumes: Dict[int, float] = {}
        for client_index in report.straggler_indices:
            device = devices[client_index]
            cost_model = TrainingCostModel(
                self.model, self.input_shape,
                samples_per_cycle=samples_per_cycle.get(client_index, 1),
                batch_size=self.batch_size)
            volume = cost_model.volume_for_budget(
                device, target_seconds, min_fraction=self.min_volume)
            volumes[client_index] = max(self.min_volume, min(1.0, volume))
        return VolumeAssignment(volumes=volumes,
                                target_seconds=target_seconds)
