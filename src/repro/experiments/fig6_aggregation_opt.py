"""Fig. 6 — model-aggregation optimization evaluation.

The paper's own ablation of the heterogeneity-aware aggregation (Eq. 10):
Helios is compared against "S.T. Only" (identical soft-training but plain
FedAvg aggregation) while the number of stragglers grows from 1 to 4, on
LeNet/MNIST and AlexNet/CIFAR-10.  The aggregation optimization should both
raise accuracy and damp the cycle-to-cycle fluctuation caused by
partial-model aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..fl import TrainingHistory
from ..metrics import format_accuracy_curves, format_table
from .common import (DATASET_MODEL, STRATEGIES, ExperimentSetting, get_scale,
                     make_simulation_factory, run_strategies)

__all__ = ["Fig6PanelResult", "Fig6Result", "run_fig6", "format_fig6"]


@dataclass
class Fig6PanelResult:
    """Helios vs S.T. Only for one straggler count on one dataset."""

    dataset: str
    num_stragglers: int
    histories: Dict[str, TrainingHistory] = field(default_factory=dict)
    helios_accuracy: float = 0.0
    st_only_accuracy: float = 0.0
    helios_variance: float = 0.0
    st_only_variance: float = 0.0

    @property
    def accuracy_improvement_pp(self) -> float:
        """Accuracy gain of the aggregation optimization, in points."""
        return (self.helios_accuracy - self.st_only_accuracy) * 100.0


@dataclass
class Fig6Result:
    """All straggler counts for the requested datasets."""

    panels: List[Fig6PanelResult] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        """Summary rows (one per panel)."""
        rows: List[Dict[str, object]] = []
        for panel in self.panels:
            rows.append({
                "dataset": panel.dataset,
                "stragglers": panel.num_stragglers,
                "helios_acc": round(panel.helios_accuracy, 4),
                "st_only_acc": round(panel.st_only_accuracy, 4),
                "improvement_pp": round(panel.accuracy_improvement_pp, 2),
                "helios_var": round(panel.helios_variance, 6),
                "st_only_var": round(panel.st_only_variance, 6),
            })
        return rows


def run_fig6(datasets: Sequence[str] = ("mnist",),
             straggler_counts: Sequence[int] = (1, 2, 3, 4),
             num_capable: int = 2, scale: str = "fast",
             seed: int = 0, backend: str = None) -> Fig6Result:
    """Run the aggregation-optimization ablation.

    The paper evaluates MNIST and CIFAR-10; the default runs MNIST only so
    the benchmark stays tractable — pass ``datasets=("mnist", "cifar10")``
    for the full figure.
    """
    scale_config = get_scale(scale)
    result = Fig6Result()
    for dataset in datasets:
        for num_stragglers in straggler_counts:
            setting = ExperimentSetting(
                dataset=dataset, model=DATASET_MODEL[dataset],
                num_capable=num_capable, num_stragglers=num_stragglers,
                partition="iid", seed=seed)
            simulation_factory, num_cycles = make_simulation_factory(
                setting, scale_config)
            strategies = [
                STRATEGIES[name](straggler_top_k=num_stragglers, seed=seed)
                for name in ("helios", "st_only")]
            histories = run_strategies(simulation_factory, strategies,
                                       num_cycles,
                                       eval_every=scale_config.eval_every,
                                       backend=backend)
            helios = histories["Helios"]
            st_only = histories["S.T. Only"]
            result.panels.append(Fig6PanelResult(
                dataset=dataset,
                num_stragglers=num_stragglers,
                histories=histories,
                helios_accuracy=helios.converged_accuracy(),
                st_only_accuracy=st_only.converged_accuracy(),
                helios_variance=helios.accuracy_variance(),
                st_only_variance=st_only.accuracy_variance(),
            ))
    return result


def format_fig6(result: Fig6Result) -> str:
    """Text rendering of the Fig. 6 ablation."""
    sections = [format_table(result.rows(),
                             title="Fig. 6 — aggregation optimization ablation")]
    for panel in result.panels:
        curves = {name: history.accuracies()
                  for name, history in panel.histories.items()}
        sections.append(format_accuracy_curves(
            curves,
            title=f"{panel.dataset}, {panel.num_stragglers} straggler(s)"))
    return "\n\n".join(sections)
