"""The straggler-aware base: one identification, one synchronous cycle.

Helios and the baselines derive from one
:class:`~repro.core.StragglerAwareStrategy`, so they see the same
stragglers and volumes, and every synchronous strategy closes a cycle
under one contract — also when a ``degrade`` failover drops clients:
the duration covers the clients the strategy scheduled, the loss and the
straggler fraction the updates that were delivered, and a cycle that
delivers nothing reports a loss of 0.0 and a straggler fraction of 1.0.
"""

import warnings

import pytest

from repro.baselines import (AFOStrategy, AsynchronousFLStrategy,
                             FixedPruningStrategy, RandomMaskingStrategy,
                             SynchronousFLStrategy)
from repro.core import HeliosConfig, HeliosStrategy, StragglerAwareStrategy
from repro.experiments.common import STRATEGIES
from repro.fl.chaos import ChaosController, FaultPlan, ShardKill
from repro.fl.strategy import FederatedStrategy

from ..conftest import make_tiny_simulation

SYNCHRONOUS = {
    "Syn. FL": SynchronousFLStrategy,
    "Random": RandomMaskingStrategy,
    "Fixed Pruning": FixedPruningStrategy,
    "Helios": lambda: HeliosStrategy(HeliosConfig(seed=0)),
    "S.T. Only": lambda: STRATEGIES["st_only"](seed=0),
}


@pytest.mark.parametrize("make", [*SYNCHRONOUS.values(),
                                  AsynchronousFLStrategy, AFOStrategy])
def test_every_strategy_sees_the_same_stragglers_and_volumes(make):
    reference = StragglerAwareStrategy()
    reference.setup(make_tiny_simulation())
    strategy = make()
    strategy.setup(make_tiny_simulation())
    assert strategy.report == reference.report
    assert strategy.volumes == reference.volumes == {2: strategy.volumes[2]}


class _Disturbed(FederatedStrategy):
    """Runs ``inner``, starting each cycle's faults first; with
    ``churn``, client 1 leaves the collaboration at cycle 2."""

    def __init__(self, inner, controller, churn):
        self.inner, self.controller, self.churn = inner, controller, churn
        self.name = inner.name

    def setup(self, sim):
        self.inner.setup(sim)

    def execute_cycle(self, cycle, sim):
        if self.controller is not None:
            self.controller.begin_cycle(cycle)
        if self.churn and cycle == 2:
            sim.deactivate_client(1)
        return self.inner.execute_cycle(cycle, sim)


def _records(make, kill, churn):
    """Three cycles on ``persistent`` with two slots under ``degrade``;
    clients 0 and 2 (the straggler) live on slot 0, which ``kill``
    kills at cycle 2."""
    sim = make_tiny_simulation()
    sim.set_backend("persistent", max_workers=2, on_shard_failure="degrade")
    controller = None
    if kill:
        controller = ChaosController(FaultPlan(
            seed=3, shard_kills=(ShardKill(cycle=2, slot=0),)))
        sim.backend.attach_chaos(controller)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return sim.run(_Disturbed(make(), controller, churn),
                           num_cycles=3).records
    finally:
        sim.close()


@pytest.mark.parametrize("churn", [False, True],
                         ids=["one-delivers", "none-delivers"])
@pytest.mark.parametrize("name", list(SYNCHRONOUS))
def test_a_degraded_cycle_follows_one_contract(name, churn):
    calm = _records(SYNCHRONOUS[name], kill=False, churn=churn)
    records = _records(SYNCHRONOUS[name], kill=True, churn=churn)
    undisturbed, degraded = calm[1], records[1]
    assert [record.dropped_clients for record in records] == [(), (0, 2), ()]
    assert undisturbed.dropped_clients == ()
    # The simulated clock does not know the substrate failed: cycle 1 is
    # the same run, and cycle 2 lasts as long as the undisturbed one.
    assert [record.sim_time_s for record in records[:2]] == \
        [record.sim_time_s for record in calm[:2]]
    if churn:
        assert degraded.participating_clients == 0
        assert degraded.mean_train_loss == 0.0
    else:
        assert degraded.participating_clients == 1
        assert degraded.mean_train_loss > 0.0
    # Only capable client 1 could deliver: no straggler trained.
    assert degraded.straggler_fraction_trained == 1.0
    assert undisturbed.participating_clients == 2 + (not churn)
    assert records[2].participating_clients == 2 + (not churn)
