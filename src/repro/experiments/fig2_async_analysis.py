"""Fig. 2 — preliminary analysis of asynchronous aggregation.

Two collaborating devices train an AlexNet-class model; three settings are
compared: fully synchronous aggregation (setting 1) and asynchronous
aggregation where the second device only delivers every 2 or 3 epochs
(settings 2 and 3).  The paper's observation — synchronous aggregation
converges to the best accuracy, and pushing the aggregation period from 2
to 3 epochs hurts both accuracy and convergence speed — is what this
experiment checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..fl import TrainingHistory
from ..metrics import format_accuracy_curves, format_table
from .common import (STRATEGIES, ExperimentSetting, get_scale,
                     make_simulation_factory, run_strategies)

__all__ = ["Fig2Result", "run_fig2", "format_fig2"]


@dataclass
class Fig2Result:
    """Accuracy curves and summary rows of the three Fig. 2 settings."""

    histories: Dict[str, TrainingHistory] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)


def run_fig2(scale: str = "fast", seed: int = 0,
             backend: str = None) -> Fig2Result:
    """Run the three aggregation-period settings of Fig. 2."""
    scale_config = get_scale(scale)
    setting = ExperimentSetting(dataset="cifar10", model="alexnet",
                                num_capable=1, num_stragglers=1,
                                partition="iid", seed=seed)
    simulation_factory, num_cycles = make_simulation_factory(setting,
                                                             scale_config)
    strategies = [
        STRATEGIES["sync_fl"](straggler_top_k=1),
        STRATEGIES["async_fl"](aggregation_period=2, straggler_top_k=1),
        STRATEGIES["async_fl"](aggregation_period=3, straggler_top_k=1),
    ]
    # Give the strategies the setting names the paper uses.
    strategies[0].name = "Setting 1 (Syn.)"
    strategies[1].name = "Setting 2 (Asyn. period 2)"
    strategies[2].name = "Setting 3 (Asyn. period 3)"

    histories = run_strategies(simulation_factory, strategies, num_cycles,
                               eval_every=scale_config.eval_every,
                               backend=backend)
    result = Fig2Result(histories=histories)
    for name, history in histories.items():
        result.rows.append({
            "setting": name,
            "converge_accuracy": round(history.converged_accuracy(), 4),
            "best_accuracy": round(history.best_accuracy(), 4),
            "converge_time_min": round(history.total_time() / 60.0, 2),
        })
    return result


def format_fig2(result: Fig2Result) -> str:
    """Text rendering of the Fig. 2 comparison."""
    curves = {name: history.accuracies()
              for name, history in result.histories.items()}
    lines = [
        format_table(result.rows,
                     title="Fig. 2 — synchronous vs. asynchronous settings"),
        "",
        format_accuracy_curves(curves,
                               title="Fig. 2 — accuracy per aggregation cycle"),
    ]
    return "\n".join(lines)
