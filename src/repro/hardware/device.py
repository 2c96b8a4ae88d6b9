"""Edge-device resource descriptions.

A :class:`DeviceProfile` captures the heterogeneous hardware resources the
paper enumerates in Fig. 1 (memory, CPU, GPU, bandwidth; the cost model
has no use for battery) in the form consumed by the analytical cost model of
Sec. IV-B:
computation bandwidth ``Ccpu``, memory transfer speed ``Vmc`` and network
bandwidth ``Bn``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = ["DeviceProfile"]


@dataclass(frozen=True)
class DeviceProfile:
    """Static resource description of one edge device.

    Attributes
    ----------
    name:
        Device identifier, e.g. ``"jetson-nano-gpu"``.
    compute_gflops:
        Effective training compute bandwidth ``Ccpu`` in GFLOP/s.  This is
        deliberately *effective* throughput (it folds in framework
        overheads), not the datasheet peak.
    memory_bandwidth_gbps:
        Memory transfer speed ``Vmc`` in GB/s.
    network_bandwidth_mbps:
        Communication bandwidth ``Bn`` in Mbit/s.
    memory_capacity_mb:
        Available RAM for training, in MB.  Models whose footprint exceeds
        this cannot be deployed unshrunk.
    has_gpu:
        Whether the compute bandwidth comes from a GPU (informational).
    """

    name: str
    compute_gflops: float
    memory_bandwidth_gbps: float
    network_bandwidth_mbps: float
    memory_capacity_mb: float
    has_gpu: bool = False

    def __post_init__(self) -> None:
        for attribute in ("compute_gflops", "memory_bandwidth_gbps",
                          "network_bandwidth_mbps", "memory_capacity_mb"):
            if getattr(self, attribute) <= 0:
                raise ValueError(f"{attribute} must be positive")

    # ------------------------------------------------------------------ #
    # unit helpers used by the cost model
    # ------------------------------------------------------------------ #
    @property
    def compute_flops_per_second(self) -> float:
        """``Ccpu`` in FLOP/s."""
        return self.compute_gflops * 1e9

    @property
    def memory_bytes_per_second(self) -> float:
        """``Vmc`` in bytes/s."""
        return self.memory_bandwidth_gbps * 1e9

    @property
    def network_bytes_per_second(self) -> float:
        """``Bn`` in bytes/s."""
        return self.network_bandwidth_mbps * 1e6 / 8.0

    def scaled(self, compute: float = 1.0, memory_bandwidth: float = 1.0,
               network: float = 1.0, memory_capacity: float = 1.0,
               name: str = "") -> "DeviceProfile":
        """A derived profile with scaled resources.

        Mirrors the paper's testbed methodology, where Jetson Nano boards
        are throttled (CPU/GPU bandwidth and memory caps) to emulate weaker
        devices.
        """
        return replace(
            self,
            name=name or f"{self.name}-scaled",
            compute_gflops=self.compute_gflops * compute,
            memory_bandwidth_gbps=self.memory_bandwidth_gbps * memory_bandwidth,
            network_bandwidth_mbps=self.network_bandwidth_mbps * network,
            memory_capacity_mb=self.memory_capacity_mb * memory_capacity,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (used by reporting)."""
        return {
            "compute_gflops": self.compute_gflops,
            "memory_bandwidth_gbps": self.memory_bandwidth_gbps,
            "network_bandwidth_mbps": self.network_bandwidth_mbps,
            "memory_capacity_mb": self.memory_capacity_mb,
        }
