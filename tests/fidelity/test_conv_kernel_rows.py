"""Paper rows that the row-unfolded convolution could move, pinned.

``Conv2D`` lowers its input along one kernel axis and sums one GEMM per
kernel row (``repro.nn.layers.conv``) instead of one GEMM over a
channel-major patch matrix.  That redefines ``serial``'s numbers — a
25-term dot becomes five partial dots summed in kernel-row order, so
float32 rounds differently — but must not move a paper result.  Each row
runs an experiment at smoke scale on three seeds twice: as shipped, and
with ``Conv2D`` patched, here only, to the channel-major kernel it
replaced (``tests/nn/reference_kernels.py``).

* Fig. 5 (LeNet/MNIST, both fleet settings): Helios' speed-up over
  Syn. FL to the target accuracy is identical — simulated time comes from
  the cost model, which counts FLOPs, not GEMMs — and every strategy's
  final accuracy agrees within 1 pp.
* Fig. 6 (LeNet/MNIST, 1-4 stragglers): Helios' and S.T. Only's
  converged accuracies agree within 1 pp and the Helios >= S.T. Only
  ordering of every panel is unchanged.

Both routes' runs are shared with the other rows (``conftest.py``).
"""

import pytest

from .conftest import SEEDS, TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fleet", [(2, 2), (3, 3)], ids=["2+2", "3+3"])
def test_fig5_speedup_and_accuracy(shipped, channel_major, fleet, seed):
    ours = shipped.fig5(fleet, seed)
    theirs = channel_major.fig5(fleet, seed)
    assert ours.helios_speedup_vs_sync == theirs.helios_speedup_vs_sync
    assert ours.histories.keys() == theirs.histories.keys()
    for name, history in ours.histories.items():
        assert history.final_accuracy() == pytest.approx(
            theirs.histories[name].final_accuracy(), abs=TOLERANCE), name


@pytest.mark.parametrize("seed", SEEDS)
def test_fig6_accuracy_and_ordering(shipped, channel_major, seed):
    ours_panels = shipped.fig6(seed).panels
    theirs_panels = channel_major.fig6(seed).panels
    assert len(ours_panels) == len(theirs_panels)
    for ours, theirs in zip(ours_panels, theirs_panels):
        assert ours.num_stragglers == theirs.num_stragglers
        assert ours.helios_accuracy == pytest.approx(theirs.helios_accuracy,
                                                     abs=TOLERANCE)
        assert ours.st_only_accuracy == pytest.approx(
            theirs.st_only_accuracy, abs=TOLERANCE)
        assert ((ours.helios_accuracy >= ours.st_only_accuracy)
                == (theirs.helios_accuracy >= theirs.st_only_accuracy))
