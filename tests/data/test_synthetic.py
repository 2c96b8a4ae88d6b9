"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.data import (DATASET_SPECS, Dataset, available_datasets,
                        load_synthetic_dataset, make_classification_images)
from repro.data.synthetic import (SyntheticImageSpec, VirtualClientDatasets,
                                  _synthesise)

from ..conftest import TINY_SPEC


class TestSpecs:
    def test_three_families_available(self):
        assert set(available_datasets()) == {"mnist", "cifar10", "cifar100"}

    def test_shapes_match_originals(self):
        assert DATASET_SPECS["mnist"].image_shape == (1, 28, 28)
        assert DATASET_SPECS["cifar10"].image_shape == (3, 32, 32)
        assert DATASET_SPECS["cifar100"].image_shape == (3, 32, 32)

    def test_class_counts_match_originals(self):
        assert DATASET_SPECS["mnist"].num_classes == 10
        assert DATASET_SPECS["cifar10"].num_classes == 10
        assert DATASET_SPECS["cifar100"].num_classes == 100


class TestGenerator:
    def test_sample_count_and_shape(self):
        spec = DATASET_SPECS["mnist"]
        dataset = make_classification_images(50, spec,
                                             np.random.default_rng(0))
        assert len(dataset) == 50
        assert dataset.sample_shape == (1, 28, 28)

    def test_labels_in_range(self):
        spec = DATASET_SPECS["cifar10"]
        dataset = make_classification_images(100, spec,
                                             np.random.default_rng(0))
        assert dataset.labels.min() >= 0
        assert dataset.labels.max() < 10

    def test_normalized_statistics(self):
        spec = DATASET_SPECS["mnist"]
        dataset = make_classification_images(200, spec,
                                             np.random.default_rng(0))
        assert abs(dataset.images.mean()) < 1e-6
        assert abs(dataset.images.std() - 1.0) < 1e-6

    def test_deterministic_given_seed(self):
        spec = DATASET_SPECS["mnist"]
        a = make_classification_images(30, spec, np.random.default_rng(7))
        b = make_classification_images(30, spec, np.random.default_rng(7))
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        spec = DATASET_SPECS["mnist"]
        a = make_classification_images(30, spec, np.random.default_rng(1))
        b = make_classification_images(30, spec, np.random.default_rng(2))
        assert not np.allclose(a.images, b.images)

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            make_classification_images(0, DATASET_SPECS["mnist"],
                                       np.random.default_rng(0))

    def test_classes_are_separable(self):
        """A nearest-class-mean classifier must beat chance comfortably."""
        spec = SyntheticImageSpec(
            name="sep-check", image_shape=(1, 16, 16), num_classes=4,
            separation=0.8, noise_std=0.8, max_shift=0, label_noise=0.0,
            prototypes_per_class=1, smoothness=4)
        rng = np.random.default_rng(0)
        train = make_classification_images(400, spec, rng)
        flat = train.images.reshape(len(train), -1)
        means = np.stack([flat[train.labels == c].mean(axis=0)
                          for c in range(4)])
        distances = ((flat[:, None, :] - means[None]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        accuracy = (predictions == train.labels).mean()
        assert accuracy > 0.6

    def test_label_noise_flips_some_labels(self):
        base = DATASET_SPECS["mnist"]
        noisy_spec = SyntheticImageSpec(
            name="noisy", image_shape=base.image_shape,
            num_classes=base.num_classes, separation=base.separation,
            noise_std=base.noise_std, max_shift=0, label_noise=0.5,
            prototypes_per_class=1, smoothness=base.smoothness)
        clean_spec = SyntheticImageSpec(
            name="clean", image_shape=base.image_shape,
            num_classes=base.num_classes, separation=base.separation,
            noise_std=base.noise_std, max_shift=0, label_noise=0.0,
            prototypes_per_class=1, smoothness=base.smoothness)
        noisy = make_classification_images(300, noisy_spec,
                                           np.random.default_rng(5))
        clean = make_classification_images(300, clean_spec,
                                           np.random.default_rng(5))
        assert np.any(noisy.labels != clean.labels)


class TestLoader:
    def test_train_test_sizes(self):
        train, test = load_synthetic_dataset("mnist", num_train=120,
                                             num_test=30, seed=0)
        assert len(train) == 120
        assert len(test) == 30

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_synthetic_dataset("imagenet")

    def test_train_and_test_share_distribution(self):
        train, test = load_synthetic_dataset("mnist", num_train=200,
                                             num_test=100, seed=3)
        # Same prototypes: per-pixel means should be close.
        assert abs(train.images.mean() - test.images.mean()) < 0.1

    def test_reproducible_across_calls(self):
        train_a, _ = load_synthetic_dataset("cifar10", num_train=50,
                                            num_test=10, seed=11)
        train_b, _ = load_synthetic_dataset("cifar10", num_train=50,
                                            num_test=10, seed=11)
        np.testing.assert_array_equal(train_a.images, train_b.images)

    def test_cifar100_has_100_classes(self):
        train, _ = load_synthetic_dataset("cifar100", num_train=300,
                                          num_test=50, seed=0)
        assert train.num_classes == 100


# --------------------------------------------------------------------- #
# the stacked recipe: identity to the per-sample loop it replaced
# --------------------------------------------------------------------- #

_BENCH_SPEC = SyntheticImageSpec(
    name="bench", image_shape=(1, 8, 8), num_classes=4, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)
#: 11x13 is divisible by no smoothness of 3 (edge-pad branch), label
#: noise flips labels after the class lookup, three prototypes a class.
_ODD_SPEC = SyntheticImageSpec(
    name="odd", image_shape=(2, 11, 13), num_classes=5, separation=0.7,
    noise_std=0.8, max_shift=3, label_noise=0.3, prototypes_per_class=3,
    smoothness=3)
_ODD_STILL_SPEC = SyntheticImageSpec(
    name="odd-still", image_shape=(2, 11, 13), num_classes=5,
    separation=0.7, noise_std=0.8, max_shift=0, label_noise=0.3,
    prototypes_per_class=3, smoothness=3)


def _assert_golden(num_samples, spec, seed, golden, build=None):
    """The float64 synthesis hashes to ``golden`` and the dataset ``build``
    returns (default: ``make_classification_images``) is that synthesis
    rounded once to float32, bit for bit, with the same labels."""
    images, labels = _synthesise(num_samples, spec,
                                 [np.random.default_rng(seed)])
    assert images.dtype == np.float64
    assert hashlib.sha256(images[0].tobytes()
                          + labels[0].tobytes()).hexdigest() == golden
    dataset = (build() if build is not None else
               make_classification_images(num_samples, spec,
                                          np.random.default_rng(seed)))
    assert dataset.images.dtype == np.float32
    assert (dataset.images.tobytes()
            == images[0].astype(np.float32).tobytes())
    assert dataset.labels.tobytes() == labels[0].tobytes()


class TestParentGoldens:
    """sha-256 of the float64 synthesis, ``images.tobytes() +
    labels.tobytes()``, recorded on the commit *before* the generator
    became one stacked pass (per-grid ``np.pad`` blur, per-sample
    ``np.roll``): the recipe and its RNG stream did not move by a bit.
    What a ``Dataset`` stores is that synthesis rounded once to float32."""

    @pytest.mark.parametrize("name,golden", [
        ("mnist", "91c78c57b7dd18c1b773f98faab5fa6bee5dd00aa982ca33e46c"
                  "a2fc0d5bc103"),
        ("cifar10", "2fcb212c28bcbe7492627c99a7ead48dd963afabdea05a5851"
                    "94d8b93f84643b"),
        ("cifar100", "a459210bf89207e510ca55921751637907865d0ac7726c6c3"
                     "b04d3418eb3f795"),
    ])
    def test_paper_families(self, name, golden):
        _assert_golden(64, DATASET_SPECS[name], 0, golden)

    def test_tiny_spec(self):
        _assert_golden(80, TINY_SPEC, 0,
                       "01a2abb770661107a3a9f865fc18ae9cd454"
                       "09060aba91c150437dff09ebb54c")

    def test_e2e_bench_virtual_client(self):
        factory = VirtualClientDatasets(_BENCH_SPEC, samples_per_client=8,
                                        seed=0)
        golden = ("0f195c80cf81117d55612877b8ce1889"
                  "8c2e16cb4b7ddbf88d030f82b1ccc7f2")
        # Client 7 of seed 0 draws from ``default_rng(0 + 7)``.
        _assert_golden(8, _BENCH_SPEC, 7, golden, build=lambda: factory(7))
        images, labels = factory.batch([3, 7])
        _assert_golden(8, _BENCH_SPEC, 7, golden, build=lambda: Dataset(
            images=images[1], labels=labels[1], num_classes=4))
        assert images.dtype == np.float32

    @pytest.mark.parametrize("spec,golden", [
        (_ODD_SPEC, "8cf5bb3b43332cb531a154c329d1ad3ef3c26da07da31baf1b7"
                    "00df6022a6b51"),
        (_ODD_STILL_SPEC, "bb4a2ee13f42789dac944c3fcf44ed568aba20376eea4"
                          "30b27d57ec2a750f5cf"),
    ], ids=["edge-pad+flips+shift3", "max_shift=0"])
    def test_odd_specs(self, spec, golden):
        _assert_golden(37, spec, 5, golden)


class TestVirtualClientDatasets:
    @pytest.mark.parametrize("spec", [_BENCH_SPEC, _ODD_SPEC],
                             ids=["bench", "odd"])
    @pytest.mark.parametrize("client_ids", [
        [7], [3, 4], list(range(64)), list(range(100, 165)),
        [40, 2, 977, 2_000_003, 11],
    ], ids=["C=1", "C=2", "C=64", "C=65", "non-contiguous"])
    def test_batch_slices_equal_single_datasets(self, spec, client_ids):
        factory = VirtualClientDatasets(spec, samples_per_client=8, seed=5)
        images, labels = factory.batch(client_ids)
        assert images.shape == (len(client_ids), 8) + spec.image_shape
        assert labels.shape == (len(client_ids), 8)
        for row, client_id in enumerate(client_ids):
            single = factory(client_id)
            assert images[row].tobytes() == single.images.tobytes()
            assert labels[row].tobytes() == single.labels.tobytes()
            assert labels[row].dtype == single.labels.dtype

    def test_rejects_bad_recipe_at_construction(self):
        with pytest.raises(ValueError, match="samples_per_client"):
            VirtualClientDatasets(_BENCH_SPEC, samples_per_client=0)
        with pytest.raises(ValueError, match="samples_per_client"):
            VirtualClientDatasets(_BENCH_SPEC, samples_per_client=2.5)
        with pytest.raises(ValueError, match="seed"):
            VirtualClientDatasets(_BENCH_SPEC, samples_per_client=8,
                                  seed=0.5)

    def test_stacked_generator_raises_the_single_dataset_error(self):
        with pytest.raises(ValueError, match="num_samples must be positive"):
            make_classification_images(-3, _BENCH_SPEC,
                                       np.random.default_rng(0))
