"""The paper's two asynchronous baselines, pinned.

Asyn. FL and AFO train and fold through
:meth:`~repro.fl.simulation.FederatedSimulation.train_and_aggregate`
like every other strategy.  For Asyn. FL that is the same sample-count
FedAvg it always computed, so its histories are pinned to digests: the
recorded ones with ``Conv2D`` patched to the channel-major kernel the
digests were recorded on, and the shipped row-unfolded kernel's own.  AFO
used to mix its updates into the global model one after the other,
``w <- (1 - m) w + m u`` with a rounding to float32 after every mix; it
now folds them once with the unrolled factors.  That moves its rounding
and nothing else, so its rows are pinned against a replica of the
sequential mixing kept here:

* one cycle's global is ``allclose`` (rtol 1e-6) to the sequential mix of
  the same serial updates, from the same global and stale snapshots;
* the Fig. 5 smoke final accuracy agrees with the sequential route
  within 1 pp;
* the unrolled factors sum to 1.

The smoke runs come from the shared ``shipped`` / ``channel_major``
fixtures (``conftest.py``).
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import AFOStrategy
from repro.experiments.common import (DATASET_MODEL, ExperimentSetting,
                                      get_scale, make_simulation_factory)
from repro.experiments.fig5_effectiveness import default_fig5_panels
from repro.fl.aggregation import aggregate_full
from repro.fl.strategy import CycleOutcome

from ..conftest import make_tiny_simulation
from .conftest import SEEDS, TOLERANCE

#: Digests of the smoke-scale histories, seed 0, recorded before Asyn. FL
#: moved onto the fold, with every convolution on the channel-major
#: patch-matrix kernel ``Conv2D`` had then (both experiments train CNNs).
FIG2_DIGEST = (
    "95998fefad570168e681158374944f73ecd399fb57a035c3a604bd90600aca16")
FIG5_ASYNC_DIGEST = (
    "b2ebbc3592b62155b61260752fd9270eb12b2d2ea5efa16ae26c4b347943fb1d")
#: The same histories on the row-unfolded ``Conv2D`` kernel: it splits
#: every convolution's dot products into per-kernel-row partial sums, so
#: only float32 rounding moves them.
FIG2_ROW_UNFOLDED_DIGEST = (
    "37f442611af17ce20cce15cea4e9eae0df7cdfbb4a98d94ae68ff406cab1e836")
FIG5_ASYNC_ROW_UNFOLDED_DIGEST = (
    "43de2fbe4a7e5309db675499a9f6a856530b085fafe89ef1abe130c68944b409")


def _history_digest(histories):
    sha = hashlib.sha256()
    for name in sorted(histories):
        sha.update(name.encode())
        for record in histories[name].records:
            sha.update(repr((
                record.cycle, record.sim_time_s.hex(),
                record.global_accuracy.hex(), record.mean_train_loss.hex(),
                record.participating_clients,
                record.straggler_fraction_trained.hex(),
                sorted((key, value.hex())
                       for key, value in record.extra.items()),
                record.dropped_clients)).encode())
    return sha.hexdigest()


def _fig5_settings(seed):
    for dataset, capable, stragglers in default_fig5_panels():
        yield stragglers, ExperimentSetting(
            dataset=dataset, model=DATASET_MODEL[dataset],
            num_capable=capable, num_stragglers=stragglers,
            partition="iid", seed=seed)


def test_async_fl_fig2_histories_unchanged(channel_major):
    assert (_history_digest(channel_major.fig2().histories)
            == FIG2_DIGEST)


def test_async_fl_fig5_histories_unchanged(channel_major):
    assert (_history_digest(channel_major.fig5_async_histories())
            == FIG5_ASYNC_DIGEST)


def test_async_fl_fig2_histories_on_the_row_unfolded_kernel(shipped):
    assert (_history_digest(shipped.fig2().histories)
            == FIG2_ROW_UNFOLDED_DIGEST)


def test_async_fl_fig5_histories_on_the_row_unfolded_kernel(shipped):
    assert (_history_digest(shipped.fig5_async_histories())
            == FIG5_ASYNC_ROW_UNFOLDED_DIGEST)


class SequentialAFO(AFOStrategy):
    """AFO as it mixed before the fold: fresh FedAvg mixed at ``alpha``,
    then every stale delivery mixed in one after the other, each mix
    rounded into the float32 global model."""

    def _mix(self, sim, update_weights, mixing):
        current = sim.server.get_global_weights()
        sim.server.set_global_weights({
            name: (1.0 - mixing) * current[name]
            + mixing * np.asarray(update_weights[name])
            for name in current})

    def execute_cycle(self, cycle, sim):
        global_weights = sim.server.get_global_weights()
        capable = self.capable_indices(sim)
        fresh = sim.backend.run_jobs(sim.clients, [
            _job(index, global_weights, cycle) for index in capable])
        losses = [update.train_loss for update in fresh]
        if fresh:
            self._mix(sim, aggregate_full(fresh), self._staleness_weight(0))
        deliveries = self.due_deliveries(cycle, sim, global_weights)
        for job, update in zip(deliveries,
                               sim.backend.run_jobs(sim.clients, deliveries)):
            del self.pending[job.index]
            self._mix(sim, update.weights,
                      self._staleness_weight(cycle - update.base_cycle))
            losses.append(update.train_loss)
        return CycleOutcome(
            duration_s=max(sim.client_cycle_seconds(index)
                           for index in capable),
            participating_clients=len(fresh) + len(deliveries),
            mean_train_loss=float(np.mean(losses)),
            straggler_fraction_trained=1.0,
            extra={"stale_deliveries": float(len(deliveries))})


def _job(index, weights, cycle):
    from repro.fl.executor import TrainingJob
    return TrainingJob(index=index, weights=weights, base_cycle=cycle)


@pytest.mark.parametrize("seed", SEEDS)
def test_afo_cycle_matches_sequential_mixing(seed):
    """Both routes start every cycle from the same global model (and so
    snapshot the same stale bases); the clients' RNG streams advance
    identically on both, so they train the same updates."""
    folded = make_tiny_simulation(num_capable=2, num_stragglers=2, seed=seed)
    sequential = make_tiny_simulation(num_capable=2, num_stragglers=2,
                                      seed=seed)
    fold_afo = AFOStrategy(aggregation_period=1, straggler_top_k=2,
                           seed=seed)
    mix_afo = SequentialAFO(aggregation_period=1, straggler_top_k=2,
                            seed=seed)
    fold_afo.setup(folded)
    mix_afo.setup(sequential)
    stale_cycles = 0
    for cycle in (1, 2, 3, 4):
        sequential.server.set_global_weights(
            folded.server.get_global_weights())
        ours = fold_afo.execute_cycle(cycle, folded)
        theirs = mix_afo.execute_cycle(cycle, sequential)
        assert ours.participating_clients == theirs.participating_clients
        assert ours.mean_train_loss == theirs.mean_train_loss
        stale_cycles += ours.extra["stale_deliveries"] == 2
        expected = sequential.server.get_global_weights()
        for name, value in folded.server.get_global_weights().items():
            np.testing.assert_allclose(value, expected[name], rtol=1e-6,
                                       atol=1e-8, err_msg=name)
    assert stale_cycles == 2  # both stragglers delivered in cycles 2 and 4


@pytest.mark.parametrize("seed", SEEDS)
def test_afo_fig5_accuracy_matches_sequential_mixing(shipped, seed):
    scale = get_scale("smoke")
    for stragglers, setting in _fig5_settings(seed):
        if setting.dataset != "mnist":
            continue
        folded = shipped.fig5((setting.num_capable, stragglers),
                              seed).histories["AFO"]
        factory, num_cycles = make_simulation_factory(setting, scale)
        with factory() as sim:
            sequential = sim.run(
                SequentialAFO(straggler_top_k=stragglers, seed=seed),
                num_cycles=num_cycles, eval_every=scale.eval_every)
        assert folded.final_accuracy() == pytest.approx(
            sequential.final_accuracy(), abs=TOLERANCE), setting.label


@pytest.mark.parametrize("fresh, stalenesses", [
    ([40, 40], []), ([40, 60], [1]), ([30, 50, 20], [1, 3, 2]),
    ([], [2, 1]), ([10], [0, 5, 1, 1])])
def test_afo_unrolled_factors_sum_to_one(fresh, stalenesses):
    """The factors are the sequential mix's coefficients: mixing unit
    vectors (global, fresh FedAvg, each stale update) one after the other
    lands every one on its factor, and together they sum to 1."""
    afo = AFOStrategy(mixing_alpha=0.7, staleness_exponent=0.5)
    factors, kept = afo.mixing_factors(fresh, stalenesses)
    assert len(factors) == len(fresh) + len(stalenesses)
    assert kept + sum(factors) == pytest.approx(1.0, abs=1e-15)
    basis = np.eye(2 + len(stalenesses))  # global, fresh FedAvg, u_1, ...
    mixed = basis[0]
    if fresh:
        alpha = afo._staleness_weight(0)
        mixed = (1 - alpha) * mixed + alpha * basis[1]
    for position, staleness in enumerate(stalenesses):
        mixing = afo._staleness_weight(staleness)
        mixed = (1 - mixing) * mixed + mixing * basis[2 + position]
    shares = np.asarray(fresh, dtype=float) / max(sum(fresh), 1)
    np.testing.assert_allclose(factors[:len(fresh)], mixed[1] * shares,
                               rtol=1e-14)
    np.testing.assert_allclose(factors[len(fresh):], mixed[2:], rtol=1e-14)
    assert kept == pytest.approx(mixed[0], rel=1e-14)
