"""Potential-straggler identification (paper Sec. IV-B).

Two identification paths are implemented:

* **Time-based approximation** (*black box*) — every device runs a
  lightweight test bench; devices are ranked by measured time and the
  slowest ``top_k`` (or everything slower than a relative threshold) are
  flagged as potential stragglers.
* **Resource-based profiling** (*white box*) — the analytical cost model
  ``Te = W/Ccpu + M/Vmc + M/Bn`` is evaluated from the devices' published
  resource figures, giving an exact expected cycle time per device.

Both paths produce the same :class:`StragglerReport`, so the rest of the
framework (target determination, soft-training) is agnostic to which one
was used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fl.executor import ExecutionBackend
from ..hardware.device import DeviceProfile
from ..hardware.profiler import FleetProfiler
from ..nn.model import Sequential

__all__ = ["StragglerReport", "StragglerIdentifier"]


@dataclass
class StragglerReport:
    """Outcome of straggler identification over a fleet.

    Attributes
    ----------
    method:
        ``"time"`` or ``"resource"``.
    cycle_seconds:
        Expected (or measured, scaled to a full cycle) per-cycle time for
        every device, keyed by client index.
    ranking:
        Client indices sorted from slowest to fastest — the paper's index
        ``T = {T1, ..., TN}`` with ``T1`` the longest time cost.
    straggler_indices:
        Client indices identified as potential stragglers.
    reference_seconds:
        The collaboration pace the stragglers are compared against
        (the fastest capable device's cycle time).
    """

    method: str
    cycle_seconds: Dict[int, float]
    ranking: List[int]
    straggler_indices: List[int]
    reference_seconds: float
    extra: Dict[str, float] = field(default_factory=dict)

    def is_straggler(self, client_index: int) -> bool:
        """Whether a client was flagged as a potential straggler."""
        return client_index in self.straggler_indices

    def capable_indices(self) -> List[int]:
        """Indices of devices not flagged as stragglers."""
        return [index for index in self.cycle_seconds
                if index not in self.straggler_indices]

    def slowdown_factor(self, client_index: int) -> float:
        """How much slower a device is than the collaboration pace."""
        if self.reference_seconds <= 0:
            return 1.0
        return self.cycle_seconds[client_index] / self.reference_seconds


class StragglerIdentifier:
    """Identify potential stragglers before the collaboration starts.

    Parameters
    ----------
    model:
        The training model (used to derive workload and memory figures).
    input_shape:
        Shape of one input sample.
    samples_per_cycle:
        Samples each device processes per local training cycle (dataset
        size × local epochs); a single representative value is enough for
        identification because the *ratio* between devices is what matters.
    batch_size:
        Local mini-batch size (memory term).
    slowdown_threshold:
        A device is a straggler when its cycle time exceeds
        ``slowdown_threshold ×`` the fastest device's cycle time.
    """

    def __init__(self, model: Sequential, input_shape: Tuple[int, ...],
                 samples_per_cycle: int, batch_size: int = 32,
                 slowdown_threshold: float = 1.5) -> None:
        if slowdown_threshold <= 1.0:
            raise ValueError("slowdown_threshold must be greater than 1")
        self.profiler = FleetProfiler(model, input_shape, samples_per_cycle,
                                      batch_size=batch_size)
        self.slowdown_threshold = slowdown_threshold

    # ------------------------------------------------------------------ #
    # shared post-processing
    # ------------------------------------------------------------------ #
    def _build_report(self, method: str,
                      cycle_seconds: Dict[int, float],
                      top_k: Optional[int]) -> StragglerReport:
        ranking = sorted(cycle_seconds, key=lambda idx: -cycle_seconds[idx])
        reference = min(cycle_seconds.values())
        if top_k is not None:
            if top_k < 0 or top_k > len(cycle_seconds):
                raise ValueError("top_k out of range")
            stragglers = ranking[:top_k]
        else:
            stragglers = [index for index, seconds in cycle_seconds.items()
                          if seconds > self.slowdown_threshold * reference]
        return StragglerReport(
            method=method,
            cycle_seconds=dict(cycle_seconds),
            ranking=ranking,
            straggler_indices=sorted(stragglers),
            reference_seconds=reference,
        )

    # ------------------------------------------------------------------ #
    # white-box path
    # ------------------------------------------------------------------ #
    def identify_by_resources(self, devices: Sequence[DeviceProfile],
                              top_k: Optional[int] = None,
                              backend: Optional[ExecutionBackend] = None
                              ) -> StragglerReport:
        """Resource-based profiling over the fleet.

        Parameters
        ----------
        devices:
            Device profiles indexed by client index.
        top_k:
            If given, flag exactly the ``top_k`` slowest devices; otherwise
            use the relative ``slowdown_threshold``.
        backend:
            Optional execution backend: large fleets can fan the per-device
            cost-model evaluations out over its :meth:`map_ordered`
            (the resident backends pickle the bound estimate method to
            their workers).
        """
        if backend is None:
            estimates = [self.profiler.estimate(device)
                         for device in devices]
        else:
            estimates = backend.map_ordered(self.profiler.estimate, devices)
        cycle_seconds = {index: estimate.total_seconds
                         for index, estimate in enumerate(estimates)}
        return self._build_report("resource", cycle_seconds, top_k)

    # ------------------------------------------------------------------ #
    # black-box path
    # ------------------------------------------------------------------ #
    def identify_by_time(self, devices: Sequence[DeviceProfile],
                         top_k: Optional[int] = None,
                         bench_fraction: float = 0.05,
                         noise_std: float = 0.02,
                         rng: Optional[np.random.Generator] = None
                         ) -> StragglerReport:
        """Time-based approximation over the fleet.

        Each device runs a short test bench (a ``bench_fraction`` slice of
        a training cycle, with timing noise); measurements are scaled back
        to full-cycle estimates and ranked.
        """
        measurements = self.profiler.measure_test_bench(
            devices, bench_fraction=bench_fraction, noise_std=noise_std,
            rng=rng)
        cycle_seconds = {
            index: measurements[device.name] / bench_fraction
            for index, device in enumerate(devices)
        }
        return self._build_report("time", cycle_seconds, top_k)
