"""Property tests: hierarchical folds == flat aggregation, bit for bit.

The hierarchical aggregation path rests on one algebraic property: the
pre-rounded per-level sums inside :func:`~repro.fl.aggregation.fold_updates`
are *exact*, so folding any partition of a cycle's updates shard by shard
and merging the partial aggregates yields the same floats as folding the
whole cycle at once.  These tests drive that property with randomized
weights, masks, client weights and shard assignments — including the
degenerate one-shard and one-client-per-shard topologies — and compare
against the flat :func:`aggregate_full` / :func:`aggregate_partial`
entry points with ``assert_array_equal`` (no tolerances).

The updates are float32, what clients train and ship; the fold casts them
up, so what it returns is float64, and the global model a server installs
from it (``set_weights`` rounds once) is float32 — identical on every
topology because the float64 it was rounded from is.
"""

import numpy as np
import pytest

from repro.fl import (ClientUpdate, ModelStructure, aggregate_full,
                      aggregate_partial, finalize_partials, fold_updates,
                      normalize_weights)
from repro.nn import ModelMask

from ..conftest import make_tiny_model

SEEDS = (0, 1, 2, 3)


def _random_update(rng, client_id, global_weights, with_mask):
    weights = {name: (value + rng.normal(size=value.shape)
                      ).astype(np.float32)
               for name, value in global_weights.items()}
    mask = None
    if with_mask:
        # Adversarial coverage: per-layer keep probabilities drawn per
        # update, so some neurons end up covered by zero updates.
        mask = ModelMask({
            "fc1": rng.random(16) < rng.uniform(0.1, 0.9),
            "fc2": rng.random(8) < rng.uniform(0.1, 0.9),
            "output": rng.random(4) < rng.uniform(0.3, 1.0),
        })
    return ClientUpdate(client_id=client_id, client_name=f"c{client_id}",
                        weights=weights,
                        num_samples=int(rng.integers(1, 50)),
                        train_loss=float(rng.random()), mask=mask)


def _random_partition(rng, num_updates, num_shards):
    assignment = rng.integers(0, num_shards, size=num_updates)
    shards = [np.flatnonzero(assignment == shard)
              for shard in range(num_shards)]
    return [shard for shard in shards if len(shard)]


def _fold_per_shard(updates, factors, shards, structure, partial):
    return [
        fold_updates([updates[i] for i in shard],
                     [factors[i] for i in shard],
                     structure=structure, partial=partial)
        for shard in shards
    ]


@pytest.fixture(scope="module")
def model():
    return make_tiny_model()


@pytest.fixture(scope="module")
def structure(model):
    return ModelStructure.from_model(model)


def _assert_same_global(combined, flat):
    """Equal as folded (float64) and as a model holds them (float32)."""
    assert set(combined) == set(flat)
    for name in flat:
        assert combined[name].dtype == flat[name].dtype == np.float64, name
        assert np.all(np.isfinite(combined[name])), name
        np.testing.assert_array_equal(combined[name], flat[name],
                                      err_msg=name)
    installed = []
    for weights in (combined, flat):
        server_model = make_tiny_model()
        server_model.set_weights(weights)
        installed.append(server_model.get_weights())
    for name in flat:
        assert installed[0][name].dtype == np.float32, name
        assert installed[0][name].tobytes() == installed[1][name].tobytes()


def _topologies(rng, num_updates):
    """Random shard counts, two halves and both degenerate topologies."""
    return [
        [np.arange(num_updates)],                       # one shard
        [np.array([i]) for i in range(num_updates)],    # one client/shard
        np.array_split(np.arange(num_updates), 2),      # two shards
        _random_partition(rng, num_updates, int(rng.integers(2, 5))),
    ]


class TestFullParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hierarchical_matches_aggregate_full(self, seed, model,
                                                 structure):
        rng = np.random.default_rng(seed)
        global_weights = model.get_weights()
        num_updates = int(rng.integers(3, 9))
        updates = [_random_update(rng, i, global_weights, with_mask=False)
                   for i in range(num_updates)]
        client_weights = rng.uniform(0.0, 3.0, size=num_updates)
        client_weights[0] = 1.0  # never all-zero
        factors = normalize_weights(client_weights)
        flat = aggregate_full(updates, client_weights=client_weights)
        for shards in _topologies(rng, num_updates):
            partials = _fold_per_shard(updates, factors, shards, structure,
                                       partial=False)
            _assert_same_global(finalize_partials(None, partials), flat)


class TestPartialParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hierarchical_matches_aggregate_partial(self, seed, model,
                                                    structure):
        rng = np.random.default_rng(seed + 100)
        global_weights = model.get_weights()
        num_updates = int(rng.integers(3, 9))
        updates = [_random_update(rng, i, global_weights,
                                  with_mask=bool(rng.integers(0, 2)))
                   for i in range(num_updates)]
        if all(update.mask is None for update in updates):
            updates[0] = _random_update(rng, 0, global_weights,
                                        with_mask=True)
        client_weights = [float(u.num_samples) for u in updates]
        factors = normalize_weights(client_weights)
        flat = aggregate_partial(global_weights, updates, structure)
        for shards in _topologies(rng, num_updates):
            partials = _fold_per_shard(updates, factors, shards, structure,
                                       partial=True)
            _assert_same_global(
                finalize_partials(global_weights, partials,
                                  structure=structure), flat)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_coverage_survives_any_partition(self, seed, model,
                                                  structure):
        """Adversarial: neurons no mask covers keep the global value on
        every topology (and nothing is NaN/Inf anywhere)."""
        rng = np.random.default_rng(seed + 500)
        global_weights = model.get_weights()
        num_updates = 5
        updates = []
        for i in range(num_updates):
            update = _random_update(rng, i, global_weights, with_mask=True)
            update.mask["fc1"][2] = False   # nobody covers fc1 neuron 2
            update.mask["fc2"][:] = False   # nobody covers fc2 at all
            updates.append(update)
        factors = normalize_weights([float(u.num_samples) for u in updates])
        for shards in _topologies(rng, num_updates):
            partials = _fold_per_shard(updates, factors, shards, structure,
                                       partial=True)
            combined = finalize_partials(global_weights, partials,
                                         structure=structure)
            for name in combined:
                assert np.all(np.isfinite(combined[name])), name
            np.testing.assert_array_equal(
                combined["fc1/weight"][2], global_weights["fc1/weight"][2])
            np.testing.assert_array_equal(
                combined["fc2/weight"], global_weights["fc2/weight"])
            np.testing.assert_array_equal(
                combined["fc2/bias"], global_weights["fc2/bias"])
