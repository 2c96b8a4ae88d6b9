"""Experiment runners — one per paper table/figure."""

from .common import (DATASET_MODEL, SCALES, ExperimentScale,
                     ExperimentSetting, get_scale, make_simulation_factory,
                     run_strategies)
from .fig1_motivation import Fig1Result, format_fig1, run_fig1
from .fig2_async_analysis import Fig2Result, format_fig2, run_fig2
from .fig5_effectiveness import (Fig5PanelResult, Fig5Result, format_fig5,
                                 run_fig5, run_fig5_panel)
from .fig6_aggregation_opt import Fig6Result, format_fig6, run_fig6
from .fig7_non_iid import Fig7Result, format_fig7, run_fig7
from .headline import (HeadlineResult, format_headline, run_headline,
                       summarize_headline)
from .registry import (EXPERIMENTS, ExperimentEntry, available_experiments,
                       get_experiment, run_experiment)
from .table1_profiles import Table1Result, format_table1, run_table1

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "DATASET_MODEL",
    "ExperimentSetting",
    "make_simulation_factory",
    "run_strategies",
    "Fig1Result", "run_fig1", "format_fig1",
    "Fig2Result", "run_fig2", "format_fig2",
    "Table1Result", "run_table1", "format_table1",
    "Fig5Result", "Fig5PanelResult", "run_fig5", "run_fig5_panel",
    "format_fig5",
    "Fig6Result", "run_fig6", "format_fig6",
    "Fig7Result", "run_fig7", "format_fig7",
    "HeadlineResult", "run_headline", "summarize_headline",
    "format_headline",
    "ExperimentEntry", "EXPERIMENTS", "available_experiments",
    "get_experiment", "run_experiment",
]
