"""Soft-training without aggregation optimization ("S.T. Only", Fig. 6).

The paper's own ablation: the full Helios soft-training pipeline
(contribution-guided rotating selection, rejoin regulation, pace-matched
volumes) but with plain sample-count FedAvg aggregation instead of the
heterogeneity-aware weights of Eq. 10.  Comparing it against Helios
isolates the benefit of the aggregation optimization.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..core.helios import HeliosConfig, HeliosStrategy

__all__ = ["SoftTrainingOnlyStrategy", "make_st_only_config"]


def make_st_only_config(base: Optional[HeliosConfig] = None) -> HeliosConfig:
    """A Helios config with the aggregation optimization disabled."""
    return replace(base or HeliosConfig(), aggregation="fedavg")


class SoftTrainingOnlyStrategy(HeliosStrategy):
    """Helios soft-training with plain FedAvg aggregation."""

    name = "S.T. Only"

    def __init__(self, config: Optional[HeliosConfig] = None) -> None:
        super().__init__(make_st_only_config(config))
