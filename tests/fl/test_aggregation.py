"""Tests for FedAvg and neuron-granular partial aggregation."""

import tracemalloc

import numpy as np
import pytest

from repro.fl import (ClientUpdate, ModelStructure, aggregate_full,
                      aggregate_partial, finalize_partials, fold_updates,
                      merge_partials, normalize_weights,
                      sample_count_weights)
from repro.fl import aggregation
from repro.fl.aggregation import PartialAggregate, fold_stacked
from repro.nn import ModelMask, Sequential
from repro.nn.layers import Dense

from ..conftest import make_tiny_model


def make_update(client_id, weights, num_samples=10, mask=None):
    return ClientUpdate(client_id=client_id, client_name=f"c{client_id}",
                        weights=weights, num_samples=num_samples,
                        train_loss=0.0, mask=mask)


@pytest.fixture
def model():
    return make_tiny_model()


@pytest.fixture
def structure(model):
    return ModelStructure.from_model(model)


class TestWeightHelpers:
    def test_sample_count_weights(self):
        updates = [make_update(0, {}, num_samples=10),
                   make_update(1, {}, num_samples=30)]
        np.testing.assert_allclose(sample_count_weights(updates),
                                   [0.25, 0.75])

    def test_normalize_weights(self):
        np.testing.assert_allclose(normalize_weights([1.0, 3.0]),
                                   [0.25, 0.75])

    def test_normalize_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_weights([1.0, -1.0])

    def test_normalize_rejects_all_zero(self):
        with pytest.raises(ValueError):
            normalize_weights([0.0, 0.0])


class TestModelStructure:
    def test_every_parameter_covered(self, model, structure):
        for name in model.get_weights():
            assert structure[name].name == name

    def test_layer_assignment(self, structure):
        assert structure["fc1/weight"].layer_name == "fc1"
        assert structure["output/bias"].layer_name == "output"

    def test_neuron_axis_recorded(self, structure):
        assert structure["fc1/weight"].neuron_axis == 0

    def test_contains(self, structure):
        assert "fc1/weight" in structure
        assert "nonexistent" not in structure


class TestFullAggregation:
    def test_equal_weights_average(self):
        a = {"w": np.array([0.0, 0.0])}
        b = {"w": np.array([2.0, 4.0])}
        result = aggregate_full([make_update(0, a), make_update(1, b)])
        np.testing.assert_allclose(result["w"], [1.0, 2.0])

    def test_sample_count_weighting(self):
        a = {"w": np.array([0.0])}
        b = {"w": np.array([4.0])}
        result = aggregate_full([make_update(0, a, num_samples=10),
                                 make_update(1, b, num_samples=30)])
        np.testing.assert_allclose(result["w"], [3.0])

    def test_explicit_weights(self):
        a = {"w": np.array([0.0])}
        b = {"w": np.array([10.0])}
        result = aggregate_full([make_update(0, a), make_update(1, b)],
                                client_weights=[0.9, 0.1])
        np.testing.assert_allclose(result["w"], [1.0])

    def test_single_update_identity(self):
        weights = {"w": np.array([1.0, 2.0, 3.0])}
        result = aggregate_full([make_update(0, weights)])
        np.testing.assert_allclose(result["w"], weights["w"])

    def test_empty_updates_raise(self):
        with pytest.raises(ValueError):
            aggregate_full([])

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            aggregate_full([make_update(0, {"w": np.zeros(1)})],
                           client_weights=[0.5, 0.5])


class TestPartialAggregation:
    def test_unmasked_updates_match_fedavg(self, model, structure):
        global_weights = model.get_weights()
        update_a = make_update(0, {name: value + 1.0
                                   for name, value in global_weights.items()})
        update_b = make_update(1, {name: value + 3.0
                                   for name, value in global_weights.items()})
        partial = aggregate_partial(global_weights, [update_a, update_b],
                                    structure)
        full = aggregate_full([update_a, update_b])
        for name in global_weights:
            np.testing.assert_allclose(partial[name], full[name])

    def test_uncovered_neurons_keep_global_value(self, model, structure):
        global_weights = model.get_weights()
        mask = ModelMask({"fc1": np.zeros(16, dtype=bool),
                          "fc2": np.ones(8, dtype=bool),
                          "output": np.ones(4, dtype=bool)})
        shifted = {name: value + 1.0
                   for name, value in global_weights.items()}
        update = make_update(0, shifted, mask=mask)
        result = aggregate_partial(global_weights, [update], structure)
        # fc1 neurons were trained by nobody -> stay at the global value.
        np.testing.assert_allclose(result["fc1/weight"],
                                   global_weights["fc1/weight"])
        # fc2 neurons were covered -> move to the update's values.
        np.testing.assert_allclose(result["fc2/weight"],
                                   shifted["fc2/weight"])

    def test_covered_neurons_average_only_contributors(self, model, structure):
        global_weights = model.get_weights()
        mask_a = ModelMask({"fc1": np.zeros(16, dtype=bool),
                            "fc2": np.ones(8, dtype=bool),
                            "output": np.ones(4, dtype=bool)})
        mask_a["fc1"][0] = True
        weights_a = {name: value + 2.0
                     for name, value in global_weights.items()}
        weights_b = {name: value + 6.0
                     for name, value in global_weights.items()}
        update_a = make_update(0, weights_a, mask=mask_a)
        update_b = make_update(1, weights_b)  # full model
        result = aggregate_partial(global_weights, [update_a, update_b],
                                   structure)
        # Neuron 0 of fc1: both contribute equally -> +4 over global.
        np.testing.assert_allclose(
            result["fc1/weight"][0],
            global_weights["fc1/weight"][0] + 4.0)
        # Neuron 1 of fc1: only the full update contributes -> +6.
        np.testing.assert_allclose(
            result["fc1/weight"][1],
            global_weights["fc1/weight"][1] + 6.0)

    def test_client_weights_respected_per_neuron(self, model, structure):
        global_weights = model.get_weights()
        weights_a = {name: value + 0.0
                     for name, value in global_weights.items()}
        weights_b = {name: value + 10.0
                     for name, value in global_weights.items()}
        result = aggregate_partial(global_weights,
                                   [make_update(0, weights_a),
                                    make_update(1, weights_b)],
                                   structure, client_weights=[0.8, 0.2])
        np.testing.assert_allclose(
            result["fc1/weight"],
            global_weights["fc1/weight"] + 2.0)

    def test_bias_vectors_follow_masks(self, model, structure):
        global_weights = model.get_weights()
        mask = ModelMask({"fc1": np.zeros(16, dtype=bool),
                          "fc2": np.ones(8, dtype=bool),
                          "output": np.ones(4, dtype=bool)})
        shifted = {name: value + 1.0
                   for name, value in global_weights.items()}
        result = aggregate_partial(global_weights,
                                   [make_update(0, shifted, mask=mask)],
                                   structure)
        np.testing.assert_allclose(result["fc1/bias"],
                                   global_weights["fc1/bias"])

    def test_empty_updates_raise(self, model, structure):
        with pytest.raises(ValueError):
            aggregate_partial(model.get_weights(), [], structure)


class TestZeroCoverageNeurons:
    """Regression: neurons covered by zero updates must keep the global
    weights — never divide by a zero contribution sum into NaN/Inf.
    Shard-local folds make sparse coverage common, so these masks are
    deliberately adversarial."""

    def _masks(self, rng, exclude_everywhere):
        """Random masks that all exclude ``exclude_everywhere`` fc1 ids."""
        masks = []
        for _ in range(4):
            fc1 = rng.random(16) < 0.5
            fc1[list(exclude_everywhere)] = False
            masks.append(ModelMask({"fc1": fc1,
                                    "fc2": rng.random(8) < 0.5,
                                    "output": np.ones(4, dtype=bool)}))
        # Guarantee fc2 has at least one fully-uncovered neuron too.
        for mask in masks:
            mask["fc2"][0] = False
        return masks

    def test_uncovered_neurons_exact_and_finite(self, model, structure):
        rng = np.random.default_rng(42)
        global_weights = model.get_weights()
        excluded = (2, 5, 11)
        masks = self._masks(rng, excluded)
        updates = [
            make_update(i, {name: value + rng.normal(size=value.shape)
                            for name, value in global_weights.items()},
                        num_samples=10 * (i + 1), mask=mask)
            for i, mask in enumerate(masks)
        ]
        result = aggregate_partial(global_weights, updates, structure)
        for name, value in result.items():
            assert np.all(np.isfinite(value)), name
        for neuron in excluded:
            np.testing.assert_array_equal(
                result["fc1/weight"][neuron],
                global_weights["fc1/weight"][neuron])
            np.testing.assert_array_equal(
                result["fc1/bias"][neuron],
                global_weights["fc1/bias"][neuron])
        # fc2 neuron 0 is excluded by every mask too -> global kept.
        np.testing.assert_array_equal(
            result["fc2/weight"][0], global_weights["fc2/weight"][0])

    def test_zero_weight_contributor_counts_as_no_coverage(self, model,
                                                           structure):
        global_weights = model.get_weights()
        only_fc1_zero = ModelMask({"fc1": np.zeros(16, dtype=bool),
                                   "fc2": np.ones(8, dtype=bool),
                                   "output": np.ones(4, dtype=bool)})
        only_fc1_zero["fc1"][3] = True
        shifted = {name: value + 5.0
                   for name, value in global_weights.items()}
        updates = [make_update(0, shifted, mask=only_fc1_zero),
                   make_update(1, shifted)]
        # The only update covering fc1 neuron 3's sibling rows carries
        # zero aggregation weight: its neurons must count as uncovered.
        result = aggregate_partial(global_weights, updates, structure,
                                   client_weights=[1.0, 0.0])
        assert np.all(np.isfinite(result["fc1/weight"]))
        # Neuron 3: covered by the weighted update -> moves.
        np.testing.assert_allclose(result["fc1/weight"][3],
                                   shifted["fc1/weight"][3])
        # Neuron 4: only the zero-weight update covers it -> global kept.
        np.testing.assert_array_equal(result["fc1/weight"][4],
                                      global_weights["fc1/weight"][4])

    def test_every_neuron_uncovered_returns_global_model(self, model,
                                                         structure):
        global_weights = model.get_weights()
        nothing = ModelMask({"fc1": np.zeros(16, dtype=bool),
                             "fc2": np.zeros(8, dtype=bool),
                             "output": np.zeros(4, dtype=bool)})
        shifted = {name: value + 9.0
                   for name, value in global_weights.items()}
        result = aggregate_partial(global_weights,
                                   [make_update(0, shifted, mask=nothing)],
                                   structure)
        for name in global_weights:
            assert np.all(np.isfinite(result[name])), name
            np.testing.assert_array_equal(result[name],
                                          global_weights[name])

    def test_partial_coverage_without_fallback_raises(self, model,
                                                      structure):
        mask = ModelMask({"fc1": np.zeros(16, dtype=bool),
                          "fc2": np.ones(8, dtype=bool),
                          "output": np.ones(4, dtype=bool)})
        update = make_update(0, model.get_weights(), mask=mask)
        folded = fold_updates([update], np.array([1.0]),
                              structure=ModelStructure.from_model(model),
                              partial=True)
        with pytest.raises(ValueError):
            finalize_partials(None, [folded],
                              structure=ModelStructure.from_model(model))


class TestPartialMerging:
    def test_merge_is_exact_concatenation(self, model, structure):
        rng = np.random.default_rng(3)
        global_weights = model.get_weights()
        updates = [
            make_update(i, {name: value + rng.normal(size=value.shape)
                            for name, value in global_weights.items()})
            for i in range(4)
        ]
        factors = sample_count_weights(updates)
        whole = fold_updates(updates, factors, structure, partial=True)
        left = fold_updates(updates[:2], factors[:2], structure,
                            partial=True)
        right = fold_updates(updates[2:], factors[2:], structure,
                             partial=True)
        merged = merge_partials([left, right])
        assert merged.num_updates == whole.num_updates
        for name in whole.weighted_sums:
            np.testing.assert_array_equal(merged.weighted_sums[name],
                                          whole.weighted_sums[name])
            np.testing.assert_array_equal(merged.weight_tables[name],
                                          whole.weight_tables[name])

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_partials([])

    # Per field, a lie that broadcasts into the truth and one that
    # does not: both are refused, naming the parameter.
    @pytest.mark.parametrize("field, lie", [
        ("weighted_sums", (3, 1, 1)), ("weighted_sums", (3, 2, 5)),
        ("weight_tables", (3, 1)), ("weight_tables", (3, 5))])
    def test_merge_refuses_a_partial_of_another_shape(self, field, lie):
        def partial(**shapes):
            shapes = {"weighted_sums": (3, 2, 4), "weight_tables": (3, 2),
                      **shapes}
            return PartialAggregate(
                num_updates=1,
                **{key: {"w": np.ones(shape)}
                   for key, shape in shapes.items()})

        for merge in (merge_partials,
                      lambda parts: finalize_partials(None, parts)):
            with pytest.raises(ValueError, match="parameter 'w'"):
                merge([partial(), partial(**{field: lie})])


class TestFoldStacked:
    """``fold_stacked`` is ``fold_updates(partial=False)`` for updates
    that already sit stacked along a leading axis."""

    @staticmethod
    def _updates(model, count, seed=5):
        rng = np.random.default_rng(seed)
        return [make_update(i, {name: value + rng.normal(size=value.shape)
                                for name, value
                                in model.get_weights().items()})
                for i in range(count)]

    @staticmethod
    def _stack(updates):
        return {name: np.stack([update.weights[name] for update in updates])
                for name in updates[0].weights}

    # 40 updates leave a ragged last block in the fold kernel.
    @pytest.mark.parametrize("count", [1, 16, 40])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "non-uniform"])
    def test_matches_fold_updates_byte_for_byte(self, model, count,
                                                uniform):
        updates = self._updates(model, count)
        factors = (np.full(count, 1.0 / 2000) if uniform else
                   normalize_weights(np.random.default_rng(1).uniform(
                       0.0, 3.0, size=count)))
        expected = fold_updates(updates, factors, structure=None,
                                partial=False)
        actual = fold_stacked(self._stack(updates), factors)
        assert actual.num_updates == expected.num_updates == count
        assert list(actual.weighted_sums) == list(expected.weighted_sums)
        for name in expected.weighted_sums:
            assert (actual.weighted_sums[name].tobytes()
                    == expected.weighted_sums[name].tobytes())
            assert (actual.weight_tables[name].tobytes()
                    == expected.weight_tables[name].tobytes())

    @pytest.mark.parametrize("factors", [
        [0.5], [0.5, 0.5, 0.5], [0.5, -0.5], [0.5, float("nan")],
        [float("inf"), 0.5],
    ])
    def test_rejects_the_factors_fold_updates_rejects(self, model,
                                                      factors):
        updates = self._updates(model, 2)
        with pytest.raises(ValueError) as stacked_error:
            fold_stacked(self._stack(updates), factors)
        with pytest.raises(ValueError) as classic_error:
            fold_updates(updates, factors, partial=False)
        assert str(stacked_error.value) == str(classic_error.value)

    def test_rejects_addends_outside_the_summation_domain(self, model):
        stacked = {name: np.stack([value + 2.0 ** 14] * 2)
                   for name, value in model.get_weights().items()}
        with pytest.raises(ValueError, match="reproducible-summation"):
            fold_stacked(stacked, [1.0, 1.0])

    def test_nothing_to_fold_raises(self, model):
        with pytest.raises(ValueError):
            fold_stacked({}, [])
        with pytest.raises(ValueError):
            fold_stacked({"w": np.zeros((0, 3))}, [])
        with pytest.raises(ValueError, match="stacks 1 updates"):
            fold_stacked({"a": np.zeros((2, 3)), "b": np.zeros((1, 3))},
                         [0.5, 0.5])


class TestFoldMemory:
    """The fold holds one float32 stack of a parameter and two block
    buffers, never a float64 copy of the batch."""

    @pytest.mark.parametrize("partial", [False, True],
                             ids=["shared", "neuron"])
    def test_peak_is_result_plus_one_float32_stack(self, partial):
        model = Sequential([Dense(784, 64, rng=np.random.default_rng(0),
                                  name="fc")])
        structure = ModelStructure.from_model(model)
        rng = np.random.default_rng(1)
        updates = [make_update(
            i, {name: (value + rng.normal(0, 0.1, value.shape)
                       ).astype(np.float32)
                for name, value in model.get_weights().items()},
            mask=ModelMask.random(model, {"fc": 0.5}, rng))
            for i in range(16)]
        factors = normalize_weights(np.ones(16))
        tracemalloc.start()
        try:
            folded = fold_updates(updates, factors, structure,
                                  partial=partial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(array.nbytes for table in (folded.weighted_sums,
                                                folded.weight_tables)
                     for array in table.values())
        stack = 16 * 64 * 784 * np.dtype(np.float32).itemsize
        buffers = 2 * aggregation._LEVEL_BLOCK * 8
        # 10 % for the small arrays the fold makes besides these; a
        # float64 stack of the batch alone would be 6.4 MiB more.
        assert peak < 1.1 * (result + stack + buffers), peak / 2 ** 20
