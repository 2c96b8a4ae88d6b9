"""Tests for the Helios strategy, heterogeneous aggregation and scalability."""

import numpy as np
import pytest

from repro.core import (DynamicJoinManager, HeliosConfig, HeliosStrategy,
                        heterogeneity_ratios, heterogeneity_weights)
from repro.fl import ClientConfig, ClientUpdate, FLClient
from repro.fl.aggregation import normalize_weights, sample_count_weights
from repro.nn import ModelMask

from ..conftest import (FAST_DEVICE, SLOW_DEVICE, make_tiny_dataset,
                        make_tiny_model, make_tiny_simulation)


def make_mask(seed, fraction):
    return ModelMask.random(make_tiny_model(),
                            {"fc1": fraction, "fc2": fraction,
                             "output": fraction},
                            np.random.default_rng(seed))


def ratios_of(*fractions):
    """``r_n`` of one client per entry: ``None`` trains the full model."""
    return heterogeneity_ratios([
        None if fraction is None else make_mask(seed, fraction)
        for seed, fraction in enumerate(fractions)])


class TestHeterogeneityWeights:
    def test_ratios_default_to_one(self):
        assert ratios_of(None, None) == [1.0, 1.0]

    def test_partial_update_has_smaller_ratio(self):
        ratios = ratios_of(None, 0.5)
        assert ratios[1] < ratios[0]

    def test_weights_sum_to_one(self):
        weights = heterogeneity_weights(ratios_of(None, 0.25), [10, 10])
        np.testing.assert_allclose(weights.sum(), 1.0)

    def test_complete_model_weighs_more(self):
        weights = heterogeneity_weights(ratios_of(None, 0.25), [10, 10],
                                        combine_with_sample_counts=False)
        assert weights[0] > weights[1]

    def test_alpha_formula_without_sample_counts(self):
        ratios = ratios_of(None, 0.5)
        weights = heterogeneity_weights(ratios, [10, 10],
                                        combine_with_sample_counts=False)
        # alpha_n = r_n / sum(r) with r = [1.0, ~0.5].
        np.testing.assert_allclose(weights,
                                   np.array(ratios) / np.sum(ratios))

    def test_sample_counts_combine(self):
        weights = heterogeneity_weights(ratios_of(None, None), [10, 90],
                                        combine_with_sample_counts=True)
        assert weights[1] > weights[0]

    def test_ratio_exponent_sharpens(self):
        ratios = ratios_of(None, 0.25)
        linear = heterogeneity_weights(ratios, [10, 10],
                                       combine_with_sample_counts=False)
        sharp = heterogeneity_weights(ratios, [10, 10],
                                      combine_with_sample_counts=False,
                                      ratio_exponent=2.0)
        assert sharp[1] < linear[1]

    def test_empty_updates_raise(self):
        with pytest.raises(ValueError):
            heterogeneity_weights([], [])

    def test_one_sample_count_per_fraction(self):
        with pytest.raises(ValueError, match="sample count"):
            heterogeneity_weights([1.0, 0.5], [10])

    def test_matches_eq10_over_the_updates_bit_for_bit(self):
        """The pre-dispatch weights are the floats Eq. 10 gave when it
        was computed from the trained updates: ``r_n`` x sample-count
        share, normalized."""
        masks = [None, make_mask(1, 0.3), make_mask(2, 0.7)]
        counts = [40, 25, 33]
        updates = [ClientUpdate(client_id=index, client_name=str(index),
                                weights={}, num_samples=count,
                                train_loss=0.0, mask=mask)
                   for index, (mask, count) in enumerate(zip(masks, counts))]
        ratios = np.array([update.neuron_fraction for update in updates])
        expected = normalize_weights(ratios
                                     * sample_count_weights(updates))
        assert heterogeneity_weights(heterogeneity_ratios(masks),
                                     counts).tobytes() == expected.tobytes()


class TestHeliosConfig:
    def test_defaults_valid(self):
        config = HeliosConfig()
        assert config.aggregation == "heterogeneous"

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            HeliosConfig(top_share=2.0)
        with pytest.raises(ValueError):
            HeliosConfig(identification="guess")
        with pytest.raises(ValueError):
            HeliosConfig(volume_policy="magic")
        with pytest.raises(ValueError):
            HeliosConfig(aggregation="mean")
        with pytest.raises(ValueError):
            HeliosConfig(min_volume=0.0)


class TestHeliosStrategy:
    def test_setup_identifies_stragglers(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(seed=0))
        strategy.setup(sim)
        assert strategy.straggler_indices() == [2]
        assert strategy.is_straggler(2)
        assert not strategy.is_straggler(0)

    def test_straggler_volume_below_one(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(seed=0))
        strategy.setup(sim)
        assert 0.0 < strategy.volumes[2] < 1.0

    def test_time_based_identification_path(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(identification="time", seed=0))
        strategy.setup(sim)
        assert strategy.report.method == "time"
        assert strategy.straggler_indices() == [2]

    def test_levels_volume_policy(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(volume_policy="levels",
                                               seed=0))
        strategy.setup(sim)
        assert 0.0 < strategy.volumes[2] <= 1.0

    def test_execute_cycle_before_setup_raises(self):
        sim = make_tiny_simulation()
        with pytest.raises(RuntimeError):
            HeliosStrategy().execute_cycle(1, sim)

    def test_cycle_outcome_fields(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(seed=0))
        strategy.setup(sim)
        outcome = strategy.execute_cycle(1, sim)
        assert outcome.participating_clients == 3
        assert 0.0 < outcome.straggler_fraction_trained < 1.0
        assert outcome.duration_s > 0

    def test_cycle_faster_than_synchronous(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(seed=0))
        strategy.setup(sim)
        outcome = strategy.execute_cycle(1, sim)
        assert outcome.duration_s < sim.slowest_full_cycle_seconds()

    def test_contributions_recorded_after_cycle(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(seed=0))
        strategy.setup(sim)
        strategy.execute_cycle(1, sim)
        assert 2 in strategy.contributions
        assert set(strategy.contributions[2]) == {"fc1", "fc2", "output"}

    def test_full_run_improves_accuracy(self):
        sim = make_tiny_simulation()
        history = sim.run(HeliosStrategy(HeliosConfig(seed=0)), num_cycles=6)
        assert history.final_accuracy() > 0.4
        assert history.strategy_name == "Helios"

    def test_st_only_name_when_fedavg_aggregation(self):
        strategy = HeliosStrategy(HeliosConfig(aggregation="fedavg"))
        assert strategy.name == "S.T. Only"

    def test_setup_is_idempotent_for_same_simulation(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(seed=0))
        strategy.setup(sim)
        volumes = dict(strategy.volumes)
        strategy.setup(sim)
        assert strategy.volumes == volumes

    def test_setup_reruns_for_new_simulation(self):
        strategy = HeliosStrategy(HeliosConfig(seed=0))
        strategy.setup(make_tiny_simulation())
        first_report = strategy.report
        strategy.setup(make_tiny_simulation(seed=5))
        assert strategy.report is not first_report


class TestPaceAdaptation:
    def test_volume_shrinks_when_straggler_overshoots(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(seed=0, adapt_volume_cycles=3,
                                               min_volume=0.05))
        strategy.setup(sim)
        # Force an over-sized volume so the adaptation must shrink it.
        strategy.volumes[2] = 1.0
        strategy.selectors[2].set_volume(
            strategy.layer_fractions(sim, 2))
        before = strategy.volumes[2]
        strategy.execute_cycle(1, sim)
        assert strategy.volumes[2] < before


class TestDynamicJoin:
    def test_fast_newcomer_not_a_straggler(self):
        manager = DynamicJoinManager(make_tiny_model(), (1, 8, 8))
        decision = manager.evaluate_device(FAST_DEVICE,
                                           samples_per_cycle=2000,
                                           reference_seconds=1000.0)
        assert not decision.is_straggler
        assert decision.volume == 1.0

    def test_slow_newcomer_gets_volume(self):
        manager = DynamicJoinManager(make_tiny_model(), (1, 8, 8))
        reference = 0.0005
        decision = manager.evaluate_device(SLOW_DEVICE,
                                           samples_per_cycle=2000,
                                           reference_seconds=reference)
        assert decision.is_straggler
        assert 0.0 < decision.volume < 1.0
        assert decision.slowdown_factor > 1.0

    def test_measured_time_overrides_estimate(self):
        manager = DynamicJoinManager(make_tiny_model(), (1, 8, 8))
        decision = manager.evaluate_device(FAST_DEVICE,
                                           samples_per_cycle=2000,
                                           reference_seconds=1.0,
                                           measured_cycle_seconds=100.0)
        assert decision.is_straggler

    def test_invalid_arguments(self):
        manager = DynamicJoinManager(make_tiny_model(), (1, 8, 8))
        with pytest.raises(ValueError):
            manager.evaluate_device(FAST_DEVICE, samples_per_cycle=0,
                                    reference_seconds=1.0)
        with pytest.raises(ValueError):
            manager.evaluate_device(FAST_DEVICE, samples_per_cycle=10,
                                    reference_seconds=0.0)

    def test_register_new_client_in_strategy(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy(HeliosConfig(seed=0))
        strategy.setup(sim)
        newcomer = FLClient(client_id=3,
                            dataset=make_tiny_dataset(40, seed=9),
                            device=SLOW_DEVICE.scaled(name="late"),
                            model_factory=make_tiny_model,
                            config=ClientConfig(batch_size=20), seed=9)
        decision = strategy.register_new_client(sim, newcomer)
        assert decision.is_straggler
        assert sim.num_clients() == 4
        assert strategy.is_straggler(3)
        # The enlarged fleet still executes a cycle cleanly.
        outcome = strategy.execute_cycle(1, sim)
        assert outcome.participating_clients == 4

    def test_register_before_setup_raises(self):
        sim = make_tiny_simulation()
        strategy = HeliosStrategy()
        newcomer = FLClient(client_id=3,
                            dataset=make_tiny_dataset(20, seed=9),
                            device=SLOW_DEVICE, model_factory=make_tiny_model)
        with pytest.raises(RuntimeError):
            strategy.register_new_client(sim, newcomer)
