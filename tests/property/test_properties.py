"""Property-based tests (hypothesis) for the core data structures.

These cover the invariants the rest of the system depends on:
aggregation weight normalization, mask set-algebra, neuron-selection
budgets, rotation starvation-freedom, the gradient-variance bound and the
cost-model monotonicities.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (NeuronRotationTracker, SoftTrainingSelector,
                        heterogeneity_ratios, heterogeneity_weights,
                        optimal_selection_probabilities,
                        sparsified_gradient_variance)
from repro.fl import ClientUpdate, aggregate_full, normalize_weights
from repro.fl.aggregation import ModelStructure, aggregate_partial
from repro.hardware import DeviceProfile, TrainingCostModel
from repro.nn import ModelMask

from ..conftest import make_tiny_model

MODEL = make_tiny_model()
STRUCTURE = ModelStructure.from_model(MODEL)
GLOBAL_WEIGHTS = MODEL.get_weights()
LAYER_SIZES = {"fc1": 16, "fc2": 8, "output": 4}


def update_with_offset(client_id, offset, num_samples, mask=None):
    weights = {name: value + offset
               for name, value in GLOBAL_WEIGHTS.items()}
    return ClientUpdate(client_id=client_id, client_name=f"c{client_id}",
                        weights=weights, num_samples=num_samples,
                        train_loss=0.0, mask=mask)


positive_floats = st.floats(min_value=1e-3, max_value=1e3,
                            allow_nan=False, allow_infinity=False)


class TestWeightNormalizationProperties:
    @given(st.lists(positive_floats, min_size=1, max_size=10))
    def test_normalize_weights_sums_to_one(self, values):
        normalized = normalize_weights(values)
        assert abs(normalized.sum() - 1.0) < 1e-9
        assert np.all(normalized >= 0)

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=2,
                    max_size=6),
           st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2,
                    max_size=6))
    def test_fedavg_is_within_update_range(self, sample_counts, offsets):
        length = min(len(sample_counts), len(offsets))
        updates = [update_with_offset(i, offsets[i], sample_counts[i])
                   for i in range(length)]
        aggregated = aggregate_full(updates)
        for name, value in aggregated.items():
            # The float32 updates as the fold sees them, cast up.
            stacked = np.stack([update.weights[name] for update in updates],
                               dtype=np.float64)
            assert value.dtype == np.float64
            assert np.all(value >= stacked.min(axis=0) - 1e-9)
            assert np.all(value <= stacked.max(axis=0) + 1e-9)

    @given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1,
                    max_size=5),
           st.lists(st.integers(min_value=1, max_value=100), min_size=1,
                    max_size=5))
    def test_heterogeneity_weights_sum_to_one(self, fractions, samples):
        length = min(len(fractions), len(samples))
        rng = np.random.default_rng(0)
        masks = [ModelMask.random(
                     MODEL, {name: fractions[index] for name in LAYER_SIZES},
                     rng)
                 for index in range(length)]
        weights = heterogeneity_weights(heterogeneity_ratios(masks),
                                        samples[:length])
        assert abs(weights.sum() - 1.0) < 1e-9


class TestPartialAggregationProperties:
    @given(st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=-1.0, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_untrained_neurons_never_move(self, fraction, offset, seed):
        rng = np.random.default_rng(seed)
        mask = ModelMask.random(MODEL,
                                {name: fraction for name in LAYER_SIZES}, rng)
        update = update_with_offset(0, offset, 10, mask=mask)
        result = aggregate_partial(GLOBAL_WEIGHTS, [update], STRUCTURE)
        for layer, size in LAYER_SIZES.items():
            weight_name = f"{layer}/weight"
            untouched = ~mask[layer]
            np.testing.assert_allclose(
                result[weight_name][untouched],
                GLOBAL_WEIGHTS[weight_name][untouched])

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=20)
    def test_partial_equals_full_without_masks(self, offset):
        updates = [update_with_offset(0, offset, 10),
                   update_with_offset(1, -offset, 30)]
        partial = aggregate_partial(GLOBAL_WEIGHTS, updates, STRUCTURE)
        full = aggregate_full(updates)
        for name in GLOBAL_WEIGHTS:
            np.testing.assert_allclose(partial[name], full[name], atol=1e-9)


class TestMaskProperties:
    @given(st.floats(min_value=0.05, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    def test_random_mask_fraction_close_to_request(self, fraction, seed):
        rng = np.random.default_rng(seed)
        mask = ModelMask.random(MODEL,
                                {name: fraction for name in LAYER_SIZES}, rng)
        for layer, size in LAYER_SIZES.items():
            expected = max(1, int(round(fraction * size)))
            assert mask.active_counts()[layer] == expected

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_union_contains_both_operands(self, seed_a, seed_b):
        mask_a = ModelMask.random(MODEL, {name: 0.3 for name in LAYER_SIZES},
                                  np.random.default_rng(seed_a))
        mask_b = ModelMask.random(MODEL, {name: 0.3 for name in LAYER_SIZES},
                                  np.random.default_rng(seed_b))
        union = mask_a.union(mask_b)
        for layer in LAYER_SIZES:
            assert np.all(union[layer][mask_a[layer]])
            assert np.all(union[layer][mask_b[layer]])

    @given(st.integers(min_value=0, max_value=10_000))
    def test_intersection_subset_of_union(self, seed):
        rng = np.random.default_rng(seed)
        mask_a = ModelMask.random(MODEL, {name: 0.5 for name in LAYER_SIZES},
                                  rng)
        mask_b = ModelMask.random(MODEL, {name: 0.5 for name in LAYER_SIZES},
                                  rng)
        intersection = mask_a.intersection(mask_b)
        union = mask_a.union(mask_b)
        assert intersection.total_active() <= union.total_active()


class TestSelectionProperties:
    @given(st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_selection_respects_budget(self, volume, top_share, seed):
        selector = SoftTrainingSelector(
            MODEL, {name: volume for name in LAYER_SIZES},
            top_share=top_share, rng=np.random.default_rng(seed))
        contributions = {name: np.random.default_rng(seed).random(size)
                         for name, size in LAYER_SIZES.items()}
        mask = selector.select(contributions)
        counts = selector.selection_counts()
        for layer in LAYER_SIZES:
            assert mask.active_counts()[layer] == counts[layer]

    @given(st.floats(min_value=0.2, max_value=0.8),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_rotation_never_starves_neurons(self, volume, seed):
        fractions = {name: volume for name in LAYER_SIZES}
        selector = SoftTrainingSelector(MODEL, fractions, top_share=0.5,
                                        rng=np.random.default_rng(seed))
        tracker = NeuronRotationTracker(MODEL, fractions)
        contributions = {name: np.arange(size, dtype=float)
                         for name, size in LAYER_SIZES.items()}
        limit = int(np.ceil(tracker.threshold)) + 1
        for _ in range(25):
            mask = selector.select(contributions,
                                   forced=tracker.overdue_neurons())
            tracker.record_cycle(mask)
            assert tracker.max_skip_count() <= limit


class TestConvergenceBoundProperties:
    @given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=2,
                    max_size=64),
           st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=50)
    def test_variance_budget_always_respected(self, gradients, epsilon):
        gradients = np.asarray(gradients)
        probabilities = optimal_selection_probabilities(gradients, epsilon)
        assert np.all(probabilities > 0)
        assert np.all(probabilities <= 1.0)
        variance = sparsified_gradient_variance(gradients, probabilities)
        budget = (1.0 + epsilon) * float(np.sum(gradients ** 2))
        assert variance <= budget * 1.01 + 1e-9


class TestCostModelProperties:
    @given(st.floats(min_value=1.0, max_value=500.0),
           st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=30)
    def test_cycle_time_monotone_in_compute_and_volume(self, compute,
                                                       volume):
        device = DeviceProfile("d", compute_gflops=compute,
                               memory_bandwidth_gbps=5.0,
                               network_bandwidth_mbps=50.0,
                               memory_capacity_mb=1024.0)
        faster = DeviceProfile("f", compute_gflops=compute * 2,
                               memory_bandwidth_gbps=5.0,
                               network_bandwidth_mbps=50.0,
                               memory_capacity_mb=1024.0)
        cost_model = TrainingCostModel(MODEL, (1, 8, 8),
                                       samples_per_cycle=1000)
        fractions = {name: volume for name in LAYER_SIZES}
        assert (cost_model.estimate(faster).total_seconds
                <= cost_model.estimate(device).total_seconds)
        assert (cost_model.estimate(device, fractions).total_seconds
                <= cost_model.estimate(device).total_seconds + 1e-12)
