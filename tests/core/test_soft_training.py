"""Tests for the soft-training machinery: contribution, selection, rotation."""

import numpy as np
import pytest

from repro.core import (NeuronRotationTracker, SoftTrainingSelector,
                        layer_parameter_index, neuron_contributions)
from repro.nn import ModelMask

from ..conftest import make_tiny_model


@pytest.fixture
def model():
    return make_tiny_model()


UNIFORM_HALF = {"fc1": 0.5, "fc2": 0.5, "output": 0.5}


class TestContribution:
    def test_layer_parameter_index_covers_all_layers(self, model):
        index = layer_parameter_index(model)
        assert set(index) == {"fc1", "fc2", "output"}
        assert ("fc1/weight", 0) in index["fc1"]
        assert ("fc1/bias", 0) in index["fc1"]

    def test_zero_change_zero_contribution(self, model):
        weights = model.get_weights()
        contributions = neuron_contributions(model, weights, weights)
        for scores in contributions.values():
            np.testing.assert_allclose(scores, 0.0)

    def test_changed_neuron_has_positive_score(self, model):
        old = model.get_weights()
        new = {name: value.copy() for name, value in old.items()}
        new["fc1/weight"][3] += 1.0
        contributions = neuron_contributions(model, old, new)
        assert contributions["fc1"][3] > 0
        assert contributions["fc1"][0] == 0.0

    def test_score_sums_weight_and_bias_changes(self, model):
        old = model.get_weights()
        new = {name: value.copy() for name, value in old.items()}
        new["fc2/weight"][1] += 0.5          # 16 inputs -> +8 total
        new["fc2/bias"][1] += 0.25
        contributions = neuron_contributions(model, old, new)
        np.testing.assert_allclose(contributions["fc2"][1], 0.5 * 16 + 0.25)

    def test_missing_parameter_raises(self, model):
        old = model.get_weights()
        new = dict(old)
        del new["fc1/bias"]
        with pytest.raises(KeyError):
            neuron_contributions(model, old, new)


class TestSelector:
    def test_respects_volume_budget(self, model):
        selector = SoftTrainingSelector(model, UNIFORM_HALF, top_share=0.2,
                                        rng=np.random.default_rng(0))
        mask = selector.select()
        counts = mask.active_counts()
        assert counts["fc1"] == 8
        assert counts["fc2"] == 4
        assert counts["output"] == 2

    def test_includes_top_contribution_neurons(self, model):
        selector = SoftTrainingSelector(model, UNIFORM_HALF, top_share=0.5,
                                        rng=np.random.default_rng(0))
        contributions = {"fc1": np.zeros(16), "fc2": np.zeros(8),
                         "output": np.zeros(4)}
        contributions["fc1"][5] = 100.0
        contributions["fc1"][9] = 50.0
        mask = selector.select(contributions)
        assert mask["fc1"][5]
        assert mask["fc1"][9]

    def test_selection_rotates_over_cycles(self, model):
        selector = SoftTrainingSelector(model, UNIFORM_HALF, top_share=0.0,
                                        rng=np.random.default_rng(0))
        coverage = ModelMask.empty(model)
        for _ in range(20):
            coverage = coverage.union(selector.select())
        # Purely random rotation must eventually touch every neuron.
        assert coverage.active_fraction() == 1.0

    def test_forced_neurons_always_selected(self, model):
        selector = SoftTrainingSelector(model, {"fc1": 0.2, "fc2": 0.2,
                                                "output": 0.5},
                                        rng=np.random.default_rng(0))
        mask = selector.select(forced={"fc1": [0, 1, 2]})
        assert mask["fc1"][0] and mask["fc1"][1] and mask["fc1"][2]

    def test_forced_out_of_range_raises(self, model):
        selector = SoftTrainingSelector(model, UNIFORM_HALF,
                                        rng=np.random.default_rng(0))
        with pytest.raises(IndexError):
            selector.select(forced={"fc1": [99]})

    def test_set_volume_updates_counts(self, model):
        selector = SoftTrainingSelector(model, UNIFORM_HALF,
                                        rng=np.random.default_rng(0))
        selector.set_volume({"fc1": 0.25})
        assert selector.selection_counts()["fc1"] == 4

    def test_set_volume_validation(self, model):
        selector = SoftTrainingSelector(model, UNIFORM_HALF,
                                        rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            selector.set_volume({"nope": 0.5})
        with pytest.raises(ValueError):
            selector.set_volume({"fc1": 0.0})

    def test_invalid_construction(self, model):
        with pytest.raises(ValueError):
            SoftTrainingSelector(model, UNIFORM_HALF, top_share=1.5)
        with pytest.raises(ValueError):
            SoftTrainingSelector(model, {"fc1": 0.0})

    def test_wrong_contribution_shape_raises(self, model):
        selector = SoftTrainingSelector(model, UNIFORM_HALF,
                                        rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            selector.select({"fc1": np.zeros(3)})

    def test_full_volume_selects_everything(self, model):
        selector = SoftTrainingSelector(model, {"fc1": 1.0, "fc2": 1.0,
                                                "output": 1.0},
                                        rng=np.random.default_rng(0))
        assert selector.select().active_fraction() == 1.0


class TestRotationTracker:
    def test_threshold_formula(self, model):
        tracker = NeuronRotationTracker(model, UNIFORM_HALF)
        # 28 neurons total, 14 selected per cycle -> 1 + 28/14 = 3.
        np.testing.assert_allclose(tracker.threshold, 3.0)

    def test_skip_counts_accumulate(self, model):
        tracker = NeuronRotationTracker(model, UNIFORM_HALF)
        mask = ModelMask({"fc1": np.zeros(16, dtype=bool),
                          "fc2": np.ones(8, dtype=bool),
                          "output": np.ones(4, dtype=bool)})
        tracker.record_cycle(mask)
        tracker.record_cycle(mask)
        assert tracker.max_skip_count() == 2

    def test_selected_neurons_reset_counter(self, model):
        tracker = NeuronRotationTracker(model, UNIFORM_HALF)
        skip_all = ModelMask({"fc1": np.zeros(16, dtype=bool),
                              "fc2": np.ones(8, dtype=bool),
                              "output": np.ones(4, dtype=bool)})
        select_all = ModelMask.full(model)
        tracker.record_cycle(skip_all)
        tracker.record_cycle(select_all)
        assert tracker.max_skip_count() == 0

    def test_overdue_neurons_reported(self, model):
        tracker = NeuronRotationTracker(model, UNIFORM_HALF)
        skip_fc1 = ModelMask({"fc1": np.zeros(16, dtype=bool),
                              "fc2": np.ones(8, dtype=bool),
                              "output": np.ones(4, dtype=bool)})
        for _ in range(3):
            tracker.record_cycle(skip_fc1)
        overdue = tracker.overdue_neurons()
        assert set(overdue) == {"fc1"}
        assert len(overdue["fc1"]) == 16

    def test_no_overdue_before_threshold(self, model):
        tracker = NeuronRotationTracker(model, UNIFORM_HALF)
        skip_fc1 = ModelMask({"fc1": np.zeros(16, dtype=bool),
                              "fc2": np.ones(8, dtype=bool),
                              "output": np.ones(4, dtype=bool)})
        tracker.record_cycle(skip_fc1)
        assert tracker.overdue_neurons() == {}

    def test_update_volume_changes_threshold(self, model):
        tracker = NeuronRotationTracker(model, UNIFORM_HALF)
        before = tracker.threshold
        tracker.update_volume({"fc1": 0.25, "fc2": 0.25, "output": 0.25})
        assert tracker.threshold > before

    def test_reset_clears_counts(self, model):
        tracker = NeuronRotationTracker(model, UNIFORM_HALF)
        skip_all = ModelMask({"fc1": np.zeros(16, dtype=bool),
                              "fc2": np.zeros(8, dtype=bool),
                              "output": np.zeros(4, dtype=bool)})
        tracker.record_cycle(skip_all)
        tracker.reset()
        assert tracker.max_skip_count() == 0

    def test_missing_layer_in_mask_raises(self, model):
        tracker = NeuronRotationTracker(model, UNIFORM_HALF)
        with pytest.raises(KeyError):
            tracker.record_cycle(ModelMask({"fc1": np.ones(16, dtype=bool)}))

    def test_selector_with_rejoin_covers_all_neurons(self, model):
        """End-to-end rotation property: with forced rejoin no neuron is
        starved longer than the threshold."""
        volume = {"fc1": 0.3, "fc2": 0.3, "output": 0.5}
        selector = SoftTrainingSelector(model, volume, top_share=0.5,
                                        rng=np.random.default_rng(0))
        tracker = NeuronRotationTracker(model, volume)
        # Adversarial contributions: always favour the same neurons.
        contributions = {"fc1": np.arange(16, dtype=float),
                         "fc2": np.arange(8, dtype=float),
                         "output": np.arange(4, dtype=float)}
        for _ in range(30):
            mask = selector.select(contributions,
                                   forced=tracker.overdue_neurons())
            tracker.record_cycle(mask)
            assert tracker.max_skip_count() <= int(np.ceil(
                tracker.threshold)) + 1
