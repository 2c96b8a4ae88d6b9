"""Paper rows that compact soft-training could move, pinned.

A masked client trains the sub-network its mask keeps instead of the
masked full model (:mod:`repro.nn.compact`).  That redefines ``serial``'s
numbers — the GEMMs leave out exactly-zero terms and round differently —
but must not move a paper result.  Each row runs an experiment at smoke
scale on three seeds twice: as shipped, and on the dense-mask route the
experiment took before (forced here, and only here, by patching the
compaction predicate off).

* Fig. 5 (LeNet/MNIST, both fleet settings): Helios' speed-up over
  Syn. FL to the target accuracy is identical — simulated time comes from
  the cost model, which reads the mask, not the route — and every
  strategy's final accuracy agrees within 1 pp.
* Fig. 6 (LeNet/MNIST, 1-4 stragglers): Helios' and S.T. Only's
  converged accuracies agree within 1 pp and the Helios >= S.T. Only
  ordering of every panel is unchanged.

The shipped runs are shared with the other rows (``conftest.py``).
"""

import pytest

from repro.experiments.fig5_effectiveness import run_fig5_panel
from repro.experiments.fig6_aggregation_opt import run_fig6
from repro.fl import client as client_module
from repro.fl import fusion as fusion_module

from .conftest import SEEDS, TOLERANCE


def _dense_mask_route(monkeypatch):
    # Both predicates: a stacked pass would train the compact sub-network.
    monkeypatch.setattr(client_module, "compactable", lambda model: False)
    monkeypatch.setattr(fusion_module, "compactable", lambda model: False)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fleet", [(2, 2), (3, 3)], ids=["2+2", "3+3"])
def test_fig5_speedup_and_accuracy(shipped, monkeypatch, fleet, seed):
    compact = shipped.fig5(fleet, seed)
    _dense_mask_route(monkeypatch)
    dense = run_fig5_panel("mnist", *fleet, scale="smoke", seed=seed)
    assert compact.helios_speedup_vs_sync == dense.helios_speedup_vs_sync
    assert compact.histories.keys() == dense.histories.keys()
    for name, history in compact.histories.items():
        assert history.final_accuracy() == pytest.approx(
            dense.histories[name].final_accuracy(), abs=TOLERANCE), name


@pytest.mark.parametrize("seed", SEEDS)
def test_fig6_accuracy_and_ordering(shipped, monkeypatch, seed):
    compact = shipped.fig6(seed)
    _dense_mask_route(monkeypatch)
    dense = run_fig6(scale="smoke", seed=seed)
    for ours, theirs in zip(compact.panels, dense.panels):
        assert ours.num_stragglers == theirs.num_stragglers
        assert ours.helios_accuracy == pytest.approx(theirs.helios_accuracy,
                                                     abs=TOLERANCE)
        assert ours.st_only_accuracy == pytest.approx(
            theirs.st_only_accuracy, abs=TOLERANCE)
        assert ((ours.helios_accuracy >= ours.st_only_accuracy)
                == (theirs.helios_accuracy >= theirs.st_only_accuracy))
