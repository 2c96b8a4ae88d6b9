"""Tests for the Dataset container."""

import numpy as np
import pytest

from repro.data import Dataset

from ..conftest import make_tiny_dataset


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def small_dataset(n=20, classes=4, rng=None):
    rng = rng or np.random.default_rng(0)
    return Dataset(images=rng.normal(size=(n, 1, 4, 4)),
                   labels=rng.integers(0, classes, n),
                   num_classes=classes, name="small")


class TestValidation:
    def test_valid_construction(self, rng):
        dataset = small_dataset(rng=rng)
        assert len(dataset) == 20
        assert dataset.sample_shape == (1, 4, 4)
        assert dataset.images.dtype == np.float32

    def test_rejects_non_4d_images(self, rng):
        with pytest.raises(ValueError):
            Dataset(images=rng.normal(size=(10, 16)),
                    labels=np.zeros(10, dtype=int), num_classes=2)

    def test_rejects_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            Dataset(images=rng.normal(size=(10, 1, 4, 4)),
                    labels=np.zeros(8, dtype=int), num_classes=2)

    def test_rejects_out_of_range_labels(self, rng):
        with pytest.raises(ValueError):
            Dataset(images=rng.normal(size=(4, 1, 2, 2)),
                    labels=np.array([0, 1, 2, 5]), num_classes=3)

    def test_rejects_nonpositive_classes(self, rng):
        with pytest.raises(ValueError):
            Dataset(images=rng.normal(size=(4, 1, 2, 2)),
                    labels=np.zeros(4, dtype=int), num_classes=0)


class TestSubsetsAndSplits:
    def test_subset_selects_samples(self, rng):
        dataset = small_dataset(rng=rng)
        subset = dataset.subset([0, 2, 4])
        assert len(subset) == 3
        np.testing.assert_array_equal(subset.labels,
                                      dataset.labels[[0, 2, 4]])

    def test_subset_keeps_num_classes(self, rng):
        dataset = small_dataset(rng=rng)
        assert dataset.subset([0]).num_classes == dataset.num_classes

    def test_shuffled_preserves_pairs(self, rng):
        dataset = small_dataset(rng=rng)
        shuffled = dataset.shuffled(np.random.default_rng(1))
        # Every (image, label) pair must still exist.
        original_sums = np.sort(dataset.images.sum(axis=(1, 2, 3)))
        shuffled_sums = np.sort(shuffled.images.sum(axis=(1, 2, 3)))
        np.testing.assert_allclose(original_sums, shuffled_sums)

    def test_split_fractions(self, rng):
        dataset = small_dataset(n=100, rng=rng)
        left, right = dataset.split(0.7, rng=np.random.default_rng(1))
        assert len(left) == 70
        assert len(right) == 30

    def test_split_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            small_dataset(rng=rng).split(1.0)

    def test_class_counts(self):
        dataset = Dataset(images=np.zeros((5, 1, 2, 2)),
                          labels=np.array([0, 0, 1, 2, 2]), num_classes=4)
        np.testing.assert_array_equal(dataset.class_counts(), [2, 1, 2, 0])


class TestBatches:
    def test_batches_cover_all_samples(self, rng):
        dataset = small_dataset(n=23, rng=rng)
        total = sum(len(labels) for _, labels in dataset.batches(5))
        assert total == 23

    def test_drop_last(self, rng):
        dataset = small_dataset(n=23, rng=rng)
        total = sum(len(labels)
                    for _, labels in dataset.batches(5, drop_last=True))
        assert total == 20

    def test_batch_shapes(self, rng):
        dataset = small_dataset(n=10, rng=rng)
        images, labels = next(iter(dataset.batches(4)))
        assert images.shape == (4, 1, 4, 4)
        assert labels.shape == (4,)

    def test_shuffling_changes_order(self):
        dataset = make_tiny_dataset(60, seed=0)
        first = next(iter(dataset.batches(10,
                                          rng=np.random.default_rng(1))))[1]
        second = next(iter(dataset.batches(10)))[1]
        assert not np.array_equal(first, second)

    def test_invalid_batch_size(self, rng):
        with pytest.raises(ValueError):
            list(small_dataset(rng=rng).batches(0))
