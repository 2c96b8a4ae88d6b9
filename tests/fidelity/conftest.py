"""Smoke runs the fidelity rows share.

A row compares one experiment at smoke scale on one seed across two
routes, and several rows read the same run of the shipped code.  A run
costs 0.5-2 s, so each is made once per session and memoised:
:func:`shipped` holds the runs of the code as it is, :func:`channel_major`
those with ``Conv2D`` patched to the channel-major patch-matrix kernel it
had before the row-unfolded one (``tests/nn/reference_kernels.py``).
A run patches only while it is being made, so a test may fetch one
before or after patching something of its own.
"""

import pytest

from repro.baselines import AsynchronousFLStrategy
from repro.experiments.common import (DATASET_MODEL, ExperimentSetting,
                                      get_scale, make_simulation_factory)
from repro.experiments.fig2_async_analysis import run_fig2
from repro.experiments.fig5_effectiveness import (default_fig5_panels,
                                                  run_fig5_panel)
from repro.experiments.fig6_aggregation_opt import run_fig6

from ..nn.reference_kernels import patch_channel_major_conv

#: The seeds every multi-seed row runs.
SEEDS = (0, 1, 2)
#: Accuracy tolerance of a row, as a fraction.
TOLERANCE = 0.01


class SmokeRuns:
    """Memoised smoke-scale runs, made under ``patch`` (if any)."""

    def __init__(self, patch=None) -> None:
        self._patch = patch
        self._runs = {}

    def _run(self, key, make):
        if key not in self._runs:
            with pytest.MonkeyPatch.context() as monkeypatch:
                if self._patch is not None:
                    self._patch(monkeypatch)
                self._runs[key] = make()
        return self._runs[key]

    def fig5(self, fleet, seed):
        """The Fig. 5 MNIST/LeNet panel of ``fleet`` (capable,
        stragglers): all five strategies."""
        return self._run(("fig5", fleet, seed), lambda: run_fig5_panel(
            "mnist", *fleet, scale="smoke", seed=seed))

    def fig6(self, seed):
        return self._run(("fig6", seed),
                         lambda: run_fig6(scale="smoke", seed=seed))

    def fig2(self):
        """Fig. 2 at its default seed (0)."""
        return self._run(("fig2",), lambda: run_fig2(scale="smoke"))

    def fig5_async_histories(self, seed=0):
        """Asyn. FL's history on every Fig. 5 panel, keyed by setting
        label; the MNIST ones are read off :meth:`fig5`'s runs."""
        histories = {}
        scale = get_scale("smoke")
        for dataset, capable, stragglers in default_fig5_panels():
            setting = ExperimentSetting(
                dataset=dataset, model=DATASET_MODEL[dataset],
                num_capable=capable, num_stragglers=stragglers,
                partition="iid", seed=seed)
            if dataset == "mnist":
                history = self.fig5((capable, stragglers),
                                    seed).histories["Asyn. FL"]
            else:
                history = self._run(
                    ("async", setting.label),
                    lambda: _async_fl_history(setting, stragglers, scale))
            histories[setting.label] = history
        return histories


def _async_fl_history(setting, stragglers, scale):
    factory, num_cycles = make_simulation_factory(setting, scale)
    with factory() as sim:
        return sim.run(
            AsynchronousFLStrategy(straggler_top_k=stragglers,
                                   seed=setting.seed),
            num_cycles=num_cycles, eval_every=scale.eval_every)


@pytest.fixture(scope="package")
def shipped():
    return SmokeRuns()


@pytest.fixture(scope="package")
def channel_major():
    return SmokeRuns(patch_channel_major_conv)
