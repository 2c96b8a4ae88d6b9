"""Fig. 5 — soft-training effectiveness evaluation.

The paper's main comparison: global-model accuracy versus (capable-device)
aggregation cycles for Asyn. FL, AFO, Syn. FL, Random and Helios, on three
dataset/model pairs — (a) LeNet on MNIST, (b) AlexNet on CIFAR-10,
(c) ResNet on CIFAR-100 — each with two fleet settings (2 stragglers + 2
capable nodes, 3 stragglers + 3 capable nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..fl import TrainingHistory
from ..metrics import (accuracy_improvement, compare_histories,
                       format_accuracy_curves, format_table, speedup_over)
from .common import (STRATEGIES, ExperimentSetting, get_scale,
                     make_simulation_factory, run_strategies)

__all__ = ["Fig5PanelResult", "Fig5Result", "run_fig5_panel", "run_fig5",
           "format_fig5", "default_fig5_panels"]

#: Target accuracy (fraction of the Syn. FL converged accuracy) used for
#: the time-to-accuracy/speed-up comparisons.
RELATIVE_TARGET = 0.9


def make_fig5_strategies(num_stragglers: int, seed: int = 0):
    """The five strategies of Fig. 5 with matching straggler counts."""
    return [STRATEGIES[name](straggler_top_k=num_stragglers, seed=seed)
            for name in ("async_fl", "afo", "sync_fl", "random", "helios")]


@dataclass
class Fig5PanelResult:
    """One panel of Fig. 5 (one dataset/model pair and fleet setting)."""

    setting_label: str
    histories: Dict[str, TrainingHistory] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    helios_speedup_vs_sync: float = 0.0
    helios_accuracy_improvement_pp: float = 0.0
    target_accuracy: float = 0.0


@dataclass
class Fig5Result:
    """All requested panels of Fig. 5."""

    panels: List[Fig5PanelResult] = field(default_factory=list)


def default_fig5_panels() -> List[Tuple[str, int, int]]:
    """(dataset, num_capable, num_stragglers) for every paper panel."""
    panels: List[Tuple[str, int, int]] = []
    for dataset in ("mnist", "cifar10", "cifar100"):
        panels.append((dataset, 2, 2))
        panels.append((dataset, 3, 3))
    return panels


def run_fig5_panel(dataset: str, num_capable: int, num_stragglers: int,
                   scale: str = "fast", seed: int = 0,
                   backend: str = None) -> Fig5PanelResult:
    """Run one Fig. 5 panel (one dataset and fleet setting)."""
    scale_config = get_scale(scale)
    from .common import DATASET_MODEL
    setting = ExperimentSetting(dataset=dataset,
                                model=DATASET_MODEL[dataset],
                                num_capable=num_capable,
                                num_stragglers=num_stragglers,
                                partition="iid", seed=seed)
    simulation_factory, num_cycles = make_simulation_factory(setting,
                                                             scale_config)
    strategies = make_fig5_strategies(num_stragglers, seed=seed)
    histories = run_strategies(simulation_factory, strategies, num_cycles,
                               eval_every=scale_config.eval_every,
                               backend=backend)

    sync_history = histories["Syn. FL"]
    helios_history = histories["Helios"]
    target = RELATIVE_TARGET * max(sync_history.converged_accuracy(), 1e-6)
    rows = compare_histories(histories, target_accuracy=target)
    speedup = speedup_over(helios_history, sync_history, target)
    baselines = [history for name, history in histories.items()
                 if name != "Helios"]
    improvement = accuracy_improvement(helios_history, baselines,
                                       use_best=True)
    return Fig5PanelResult(
        setting_label=setting.label,
        histories=histories,
        rows=rows,
        helios_speedup_vs_sync=(speedup if speedup is not None else 0.0),
        helios_accuracy_improvement_pp=improvement,
        target_accuracy=target,
    )


def run_fig5(panels: Sequence[Tuple[str, int, int]] = None,
             scale: str = "fast", seed: int = 0,
             backend: str = None) -> Fig5Result:
    """Run a set of Fig. 5 panels (defaults to all six paper panels)."""
    panels = list(panels) if panels is not None else default_fig5_panels()
    result = Fig5Result()
    for dataset, num_capable, num_stragglers in panels:
        result.panels.append(run_fig5_panel(
            dataset, num_capable, num_stragglers, scale=scale, seed=seed,
            backend=backend))
    return result


def format_fig5(result: Fig5Result) -> str:
    """Text rendering of the Fig. 5 panels."""
    sections: List[str] = []
    for panel in result.panels:
        curves = {name: history.accuracies()
                  for name, history in panel.histories.items()}
        sections.append(format_table(
            panel.rows,
            title=f"Fig. 5 panel [{panel.setting_label}] "
                  f"(target accuracy {panel.target_accuracy:.3f})"))
        sections.append(
            f"Helios speed-up vs Syn. FL (time to target): "
            f"{panel.helios_speedup_vs_sync:.2f}x; accuracy improvement vs "
            f"best baseline: {panel.helios_accuracy_improvement_pp:+.2f} pp")
        sections.append(format_accuracy_curves(
            curves, title=f"accuracy per cycle [{panel.setting_label}]"))
        sections.append("")
    return "\n".join(sections)
