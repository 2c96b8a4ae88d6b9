"""Fig. 7 — evaluation under Non-IID data.

The same strategy comparison as Fig. 5 (plus S.T. Only), but every client's
local data is a label-sorted shard partition (the generation method of the
paper's ref. [1]), on LeNet/MNIST and AlexNet/CIFAR-10 with 2+2 and 3+3
fleets.  Non-IID data degrades every method; the check is that Helios keeps
the best accuracy/speed among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..fl import TrainingHistory
from ..metrics import compare_histories, format_accuracy_curves, format_table
from .common import (DATASET_MODEL, STRATEGIES, ExperimentSetting, get_scale,
                     make_simulation_factory, run_strategies)

__all__ = ["Fig7PanelResult", "Fig7Result", "run_fig7", "format_fig7"]

RELATIVE_TARGET = 0.9


@dataclass
class Fig7PanelResult:
    """One Non-IID panel (dataset + fleet setting)."""

    setting_label: str
    histories: Dict[str, TrainingHistory] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    helios_is_best: bool = False


@dataclass
class Fig7Result:
    """All requested Non-IID panels."""

    panels: List[Fig7PanelResult] = field(default_factory=list)


def make_fig7_strategies(num_stragglers: int, seed: int = 0):
    """The six strategies shown in Fig. 7."""
    return [STRATEGIES[name](straggler_top_k=num_stragglers, seed=seed)
            for name in ("async_fl", "afo", "sync_fl", "random", "st_only",
                         "helios")]


def default_fig7_panels() -> List[Tuple[str, int, int]]:
    """(dataset, num_capable, num_stragglers) panels of the paper figure."""
    return [("mnist", 2, 2), ("mnist", 3, 3),
            ("cifar10", 2, 2), ("cifar10", 3, 3)]


def run_fig7(panels: Sequence[Tuple[str, int, int]] = None,
             shards_per_client: int = 2,
             scale: str = "fast", seed: int = 0,
             backend: str = None) -> Fig7Result:
    """Run the Non-IID evaluation panels."""
    panels = list(panels) if panels is not None else default_fig7_panels()
    scale_config = get_scale(scale)
    result = Fig7Result()
    for dataset, num_capable, num_stragglers in panels:
        setting = ExperimentSetting(
            dataset=dataset, model=DATASET_MODEL[dataset],
            num_capable=num_capable, num_stragglers=num_stragglers,
            partition="shards", shards_per_client=shards_per_client,
            seed=seed)
        simulation_factory, num_cycles = make_simulation_factory(
            setting, scale_config)
        strategies = make_fig7_strategies(num_stragglers, seed=seed)
        histories = run_strategies(simulation_factory, strategies, num_cycles,
                                   eval_every=scale_config.eval_every,
                                   backend=backend)
        sync = histories["Syn. FL"]
        target = RELATIVE_TARGET * max(sync.converged_accuracy(), 1e-6)
        rows = compare_histories(histories, target_accuracy=target)
        best_strategy = rows[0]["strategy"] if rows else ""
        result.panels.append(Fig7PanelResult(
            setting_label=setting.label,
            histories=histories,
            rows=rows,
            helios_is_best=(best_strategy == "Helios"),
        ))
    return result


def format_fig7(result: Fig7Result) -> str:
    """Text rendering of the Fig. 7 panels."""
    sections: List[str] = []
    for panel in result.panels:
        sections.append(format_table(
            panel.rows, title=f"Fig. 7 Non-IID panel [{panel.setting_label}]"))
        curves = {name: history.accuracies()
                  for name, history in panel.histories.items()}
        sections.append(format_accuracy_curves(
            curves, title=f"accuracy per cycle [{panel.setting_label}]"))
        sections.append("")
    return "\n".join(sections)
