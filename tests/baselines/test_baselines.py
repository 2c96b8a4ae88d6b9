"""Tests for the baseline collaboration strategies."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import (AFOStrategy, AsynchronousFLStrategy,
                             FixedPruningStrategy, RandomMaskingStrategy,
                             StragglerAwareStrategy, SynchronousFLStrategy)
from repro.core import HeliosConfig
from repro.experiments.common import STRATEGIES

from ..conftest import make_tiny_simulation


@pytest.fixture
def sim():
    return make_tiny_simulation()


class TestStragglerAwareBase:
    def test_setup_identifies_stragglers(self, sim):
        strategy = SynchronousFLStrategy()
        strategy.setup(sim)
        assert strategy.straggler_indices() == [2]
        assert strategy.capable_indices(sim) == [0, 1]

    def test_straggler_top_k_override(self, sim):
        strategy = SynchronousFLStrategy(straggler_top_k=2)
        strategy.setup(sim)
        assert len(strategy.straggler_indices()) == 2

    def test_volumes_assigned_to_stragglers(self, sim):
        strategy = RandomMaskingStrategy()
        strategy.setup(sim)
        assert set(strategy.volumes) == {2}
        assert 0.0 < strategy.volumes[2] < 1.0

    def test_capable_pace_excludes_straggler(self, sim):
        strategy = SynchronousFLStrategy()
        strategy.setup(sim)
        assert (strategy.capable_pace_seconds(sim)
                < sim.slowest_full_cycle_seconds())

    def test_layer_fractions_uniform(self, sim):
        strategy = RandomMaskingStrategy()
        strategy.setup(sim)
        fractions = strategy.layer_fractions(sim, 2)
        assert len(set(fractions.values())) == 1

    def test_base_class_has_no_cycle_implementation(self, sim):
        strategy = StragglerAwareStrategy()
        strategy.setup(sim)
        with pytest.raises(NotImplementedError):
            strategy.execute_cycle(1, sim)


class TestSynchronousFL:
    def test_cycle_duration_includes_straggler(self, sim):
        strategy = SynchronousFLStrategy()
        strategy.setup(sim)
        outcome = strategy.execute_cycle(1, sim)
        np.testing.assert_allclose(outcome.duration_s,
                                   sim.slowest_full_cycle_seconds())

    def test_everyone_participates(self, sim):
        strategy = SynchronousFLStrategy()
        strategy.setup(sim)
        assert strategy.execute_cycle(1, sim).participating_clients == 3

    def test_run_improves_accuracy(self, sim):
        history = sim.run(SynchronousFLStrategy(), num_cycles=6)
        assert history.final_accuracy() > 0.4


class TestAsynchronousFL:
    def test_straggler_does_not_bound_cycle(self, sim):
        strategy = AsynchronousFLStrategy()
        strategy.setup(sim)
        outcome = strategy.execute_cycle(1, sim)
        assert outcome.duration_s < sim.slowest_full_cycle_seconds()

    def test_straggler_delivery_is_delayed(self, sim):
        strategy = AsynchronousFLStrategy(aggregation_period=3)
        strategy.setup(sim)
        first = strategy.execute_cycle(1, sim)
        second = strategy.execute_cycle(2, sim)
        third = strategy.execute_cycle(3, sim)
        # Cycle 1 starts the pending job (2 capable updates only); the
        # delivery happens at the finish cycle.
        assert first.participating_clients == 2
        assert second.participating_clients == 2
        assert third.participating_clients == 3
        assert third.extra["stale_deliveries"] == 1.0

    def test_period_derived_from_slowdown(self, sim):
        strategy = AsynchronousFLStrategy()
        strategy.setup(sim)
        period = strategy.straggler_period(sim, 2)
        assert period >= 2

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            AsynchronousFLStrategy(aggregation_period=0)

    def test_run_produces_history(self, sim):
        history = sim.run(AsynchronousFLStrategy(aggregation_period=2),
                          num_cycles=6)
        assert len(history) == 6
        assert history.strategy_name == "Asyn. FL"


class TestAFO:
    def test_mixing_moves_global_toward_update(self, sim):
        strategy = AFOStrategy(mixing_alpha=0.5)
        strategy.setup(sim)
        before = sim.server.get_global_weights()
        strategy.execute_cycle(1, sim)
        after = sim.server.get_global_weights()
        changed = any(not np.allclose(before[name], after[name])
                      for name in before)
        assert changed

    def test_staleness_weight_decays(self):
        strategy = AFOStrategy(mixing_alpha=0.8, staleness_exponent=1.0)
        assert strategy._staleness_weight(0) == pytest.approx(0.8)
        assert strategy._staleness_weight(3) == pytest.approx(0.2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AFOStrategy(mixing_alpha=0.0)
        with pytest.raises(ValueError):
            AFOStrategy(staleness_exponent=-1.0)

    def test_run_produces_history(self, sim):
        history = sim.run(AFOStrategy(aggregation_period=2), num_cycles=5)
        assert len(history) == 5


class TestRandomMasking:
    def test_straggler_trains_partial_model(self, sim):
        strategy = RandomMaskingStrategy()
        strategy.setup(sim)
        outcome = strategy.execute_cycle(1, sim)
        assert outcome.straggler_fraction_trained < 1.0

    def test_cycle_faster_than_sync(self, sim):
        strategy = RandomMaskingStrategy()
        strategy.setup(sim)
        outcome = strategy.execute_cycle(1, sim)
        assert outcome.duration_s < sim.slowest_full_cycle_seconds()

    def test_masks_differ_between_cycles(self, sim):
        strategy = RandomMaskingStrategy(seed=3)
        strategy.setup(sim)
        # Capture the straggler masks of two consecutive cycles at the
        # batch-API seam (run through the engine).
        seen_masks = []
        original_train = sim.train_and_aggregate

        def spy(indices, masks=None, **kwargs):
            for mask in (masks or {}).values():
                seen_masks.append(mask.as_dict())
            return original_train(indices, masks=masks, **kwargs)

        sim.train_and_aggregate = spy
        strategy.execute_cycle(1, sim)
        strategy.execute_cycle(2, sim)
        sim.train_and_aggregate = original_train
        masks = seen_masks
        assert len(masks) == 2
        any_difference = any(
            not np.array_equal(masks[0][name], masks[1][name])
            for name in masks[0])
        assert any_difference


class TestFixedPruning:
    def test_mask_is_fixed_across_cycles(self, sim):
        strategy = FixedPruningStrategy(seed=0)
        strategy.setup(sim)
        mask_before = strategy.fixed_masks[2].as_dict()
        strategy.execute_cycle(1, sim)
        strategy.execute_cycle(2, sim)
        mask_after = strategy.fixed_masks[2].as_dict()
        for name in mask_before:
            np.testing.assert_array_equal(mask_before[name],
                                          mask_after[name])

    def test_straggler_fraction_below_one(self, sim):
        strategy = FixedPruningStrategy(seed=0)
        strategy.setup(sim)
        outcome = strategy.execute_cycle(1, sim)
        assert outcome.straggler_fraction_trained < 1.0


#: A valid non-default value of every ``HeliosConfig`` field S.T. Only
#: keeps (a field added later needs one here).
NON_DEFAULT = {
    "top_share": 0.3, "identification": "time", "straggler_top_k": 2,
    "slowdown_threshold": 2.0, "volume_policy": "levels", "min_volume": 0.2,
    "pace_slack": 1.3, "combine_sample_counts": False, "rejoin_margin": 2.0,
    "adapt_volume_cycles": 5, "volume_adapt_rate": 0.25, "seed": 7,
}


class TestSTOnly:
    """S.T. Only is the strategy table's ``st_only`` entry: Helios with
    plain FedAvg aggregation, every other config field as given."""

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(HeliosConfig)
                  if field.name != "aggregation"])
    def test_config_keeps_every_other_field(self, field):
        value = NON_DEFAULT[field]
        assert getattr(HeliosConfig(), field) != value
        config = STRATEGIES["st_only"](**{field: value}).config
        assert getattr(config, field) == value
        assert config.aggregation == "fedavg"

    def test_config_forces_fedavg_aggregation(self):
        config = STRATEGIES["st_only"](top_share=0.3, seed=5).config
        assert config.aggregation == "fedavg"
        assert config.top_share == 0.3
        assert config.seed == 5
        with pytest.raises(ValueError, match="unknown strategy key "
                                             "'aggregation'"):
            STRATEGIES["st_only"](aggregation="heterogeneous")

    def test_strategy_name(self):
        assert STRATEGIES["st_only"]().name == "S.T. Only"

    def test_runs_and_learns(self, sim):
        history = sim.run(STRATEGIES["st_only"](seed=0), num_cycles=5)
        assert history.final_accuracy() > 0.3


class TestStrategyTable:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_every_key_reaches_the_constructor(self, name):
        values = {**NON_DEFAULT, "aggregation": "fedavg",
                  "aggregation_period": 2, "mixing_alpha": 0.5,
                  "staleness_exponent": 2.0}
        entry = STRATEGIES[name]
        strategy = entry(**{key: values[key] for key in entry.keys})
        assert (strategy.straggler_top_k, strategy.seed) == (2, 7)


class TestCrossStrategyProperties:
    def test_sync_is_slowest_per_cycle(self):
        durations = {}
        for strategy_cls in (SynchronousFLStrategy, RandomMaskingStrategy,
                             AsynchronousFLStrategy):
            sim = make_tiny_simulation()
            strategy = strategy_cls()
            strategy.setup(sim)
            durations[strategy.name] = strategy.execute_cycle(1, sim).duration_s
        assert durations["Syn. FL"] >= durations["Random"]
        assert durations["Syn. FL"] >= durations["Asyn. FL"]

    def test_all_strategies_complete_a_short_run(self):
        from repro.core import HeliosStrategy
        strategies = [SynchronousFLStrategy(), AsynchronousFLStrategy(),
                      AFOStrategy(), RandomMaskingStrategy(),
                      FixedPruningStrategy(), STRATEGIES["st_only"](),
                      HeliosStrategy()]
        for strategy in strategies:
            sim = make_tiny_simulation()
            history = sim.run(strategy, num_cycles=3)
            assert len(history) == 3
            assert all(np.isfinite(value) for value in history.accuracies())
