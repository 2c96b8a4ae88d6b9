"""Synthetic stand-ins for MNIST, CIFAR-10 and CIFAR-100.

The benchmark environment has no network access, so the paper's datasets
cannot be downloaded.  These generators produce class-conditional image
datasets with the same tensor shapes and class counts as the originals.

Every sample is built as

    image = shared_base + separation · class_delta + spatial shift + noise

where the *shared base* makes classes correlated (a linear probe is not
enough), the per-class *delta* images carry the class signal, random
translations force the model to learn shift-tolerant features (what the
convolution/pooling stack is for), and a small label-noise rate caps the
reachable accuracy below 100 %.  The resulting tasks are learnable but need
several passes to converge, and the difficulty ordering
``mnist < cifar10 < cifar100`` is preserved — which is what drives the
paper's per-dataset differences in convergence speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .dataset import Dataset

__all__ = [
    "SyntheticImageSpec",
    "DATASET_SPECS",
    "VirtualClientDatasets",
    "make_classification_images",
    "load_synthetic_dataset",
    "available_datasets",
]


@dataclass(frozen=True)
class SyntheticImageSpec:
    """Recipe for one synthetic dataset family.

    Attributes
    ----------
    name:
        Dataset name used in reports.
    image_shape:
        ``(channels, height, width)`` of one sample.
    num_classes:
        Number of classes.
    separation:
        Scale of the class-specific delta added to the shared base; lower
        values make classes harder to tell apart.
    noise_std:
        Standard deviation of the per-sample white noise.
    max_shift:
        Maximum absolute random translation (pixels) applied per sample.
    label_noise:
        Fraction of samples whose label is replaced by a random class.
    prototypes_per_class:
        Number of distinct delta images per class (intra-class variation).
    smoothness:
        Spatial smoothness of the generated patterns (upsampling factor).
    """

    name: str
    image_shape: Tuple[int, int, int]
    num_classes: int
    separation: float
    noise_std: float
    max_shift: int
    label_noise: float
    prototypes_per_class: int = 1
    smoothness: int = 4


DATASET_SPECS: Dict[str, SyntheticImageSpec] = {
    # MNIST stand-in: easiest — strong class signal, mild jitter.
    "mnist": SyntheticImageSpec(
        name="synthetic-mnist", image_shape=(1, 28, 28), num_classes=10,
        separation=0.6, noise_std=1.0, max_shift=2, label_noise=0.02,
        prototypes_per_class=1, smoothness=4),
    # CIFAR-10 stand-in: weaker signal, more jitter, intra-class variation.
    "cifar10": SyntheticImageSpec(
        name="synthetic-cifar10", image_shape=(3, 32, 32), num_classes=10,
        separation=0.55, noise_std=1.0, max_shift=2, label_noise=0.04,
        prototypes_per_class=2, smoothness=4),
    # CIFAR-100 stand-in: hardest — 100 classes share the same base.
    "cifar100": SyntheticImageSpec(
        name="synthetic-cifar100", image_shape=(3, 32, 32), num_classes=100,
        separation=0.55, noise_std=0.9, max_shift=2, label_noise=0.04,
        prototypes_per_class=1, smoothness=4),
}


def available_datasets() -> Tuple[str, ...]:
    """Names accepted by :func:`load_synthetic_dataset`."""
    return tuple(sorted(DATASET_SPECS))


def _smooth_noise(coarse: np.ndarray, shape: Tuple[int, int, int],
                  smoothness: int) -> np.ndarray:
    """Upsample ``(..., low_h, low_w)`` noise grids to smooth images.

    Every pixel of the nearest-neighbour upsampling (edge-replicated
    where ``smoothness`` does not divide the image, and by one more
    pixel all around for the blur) reads one coarse cell, so the whole
    repeat / edge-pad step is one gather per axis.
    """
    _, height, width = shape
    rows = np.minimum(np.arange(-1, height + 1).clip(0, height - 1)
                      // smoothness, coarse.shape[-2] - 1)
    cols = np.minimum(np.arange(-1, width + 1).clip(0, width - 1)
                      // smoothness, coarse.shape[-1] - 1)
    padded = coarse.take(rows, axis=-2).take(cols, axis=-1)
    # A light box blur removes the blocky upsampling artefacts.
    blurred = padded[..., :-2, :-2] + padded[..., 1:-1, :-2]
    for window in (padded[..., 2:, :-2], padded[..., :-2, 1:-1],
                   padded[..., 1:-1, 1:-1], padded[..., 2:, 1:-1],
                   padded[..., :-2, 2:], padded[..., 1:-1, 2:],
                   padded[..., 2:, 2:]):
        blurred += window
    blurred /= 9.0
    return blurred


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``arrays`` along a new leading axis; one array is not copied."""
    if len(arrays) == 1:
        return arrays[0][np.newaxis]
    return np.stack(arrays)


def _roll_by_group(samples: np.ndarray, shifts: np.ndarray,
                   max_shift: int) -> None:
    """Translate ``samples[i]`` by ``shifts[i] = (dy, dx)``, in place.

    Samples sharing a shift are rolled together — at most
    ``(2 * max_shift + 1) ** 2`` rolls however many samples there are.
    """
    offsets = range(-max_shift, max_shift + 1)
    for dy in offsets:
        in_row = shifts[:, 0] == dy
        for dx in offsets:
            members = np.flatnonzero(in_row & (shifts[:, 1] == dx))
            if members.size and (dy or dx):
                samples[members] = np.roll(samples[members], (dy, dx),
                                           axis=(2, 3))


def _synthesise(num_samples: int, spec: SyntheticImageSpec,
                rngs: Sequence[np.random.Generator]
                ) -> Tuple[np.ndarray, np.ndarray]:
    """One dataset per generator, stacked: ``(C, n, c, h, w)`` images
    and ``(C, n)`` labels.

    Each generator draws exactly the sequence a lone dataset draws
    (coarse grids, labels, prototype ids, noise, shifts, label flips);
    everything after the draws runs once over the leading client axis.
    Those ops are elementwise, permutations, or reductions along the
    last axis of one client's contiguous elements, so client ``j`` of a
    stack is byte-identical to the dataset its generator yields alone.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    channels, height, width = spec.image_shape
    num_clients = len(rngs)
    num_templates = spec.num_classes * spec.prototypes_per_class
    coarse_shape = (1 + num_templates, channels,
                    max(2, height // spec.smoothness),
                    max(2, width // spec.smoothness))
    coarse, classes, prototypes, noise, shifts, labels = (
        [] for _ in range(6))
    for rng in rngs:
        coarse.append(rng.normal(0.0, 1.0, size=coarse_shape))
        classes.append(rng.integers(0, spec.num_classes, size=num_samples))
        # integers(0, 1) returns zeros and leaves the generator where it
        # was: a one-prototype spec skips the call.
        prototypes.append(
            rng.integers(0, spec.prototypes_per_class, size=num_samples)
            if spec.prototypes_per_class > 1
            else np.zeros(num_samples, np.int64))
        noise.append(rng.normal(
            0.0, spec.noise_std,
            size=(num_samples, channels, height, width)))
        if spec.max_shift > 0:
            shifts.append(rng.integers(-spec.max_shift, spec.max_shift + 1,
                                       size=(num_samples, 2)))
        if spec.label_noise > 0:
            flip = rng.random(num_samples) < spec.label_noise
            flipped = classes[-1].copy()
            flipped[flip] = rng.integers(0, spec.num_classes,
                                         size=int(flip.sum()))
            labels.append(flipped)

    # image = shared_base + separation * class_delta + noise, looked up
    # with the labels as drawn (before any flip).
    smooth = _smooth_noise(_stacked(coarse), spec.image_shape,
                           spec.smoothness)
    templates = smooth[:, :1] + spec.separation * smooth[:, 1:]
    classes = _stacked(classes)
    lookup = classes * spec.prototypes_per_class + _stacked(prototypes)
    images = _stacked(noise)
    images += templates[np.arange(num_clients)[:, np.newaxis], lookup]
    if spec.max_shift > 0:
        _roll_by_group(images.reshape((-1,) + spec.image_shape),
                       _stacked(shifts).reshape(-1, 2), spec.max_shift)

    # Normalize every client to roughly zero mean / unit variance, the
    # same preprocessing the paper's pipelines apply to the real datasets.
    per_client = images.reshape(num_clients, -1)
    mean = per_client.mean(axis=-1)
    scale = per_client.std(axis=-1) + 1e-8
    broadcast = (num_clients, 1, 1, 1, 1)
    images -= mean.reshape(broadcast)
    images /= scale.reshape(broadcast)
    return images, (_stacked(labels) if labels else classes)


def make_classification_images(num_samples: int,
                               spec: SyntheticImageSpec,
                               rng: np.random.Generator) -> Dataset:
    """Sample a labelled dataset following ``spec``."""
    images, labels = _synthesise(num_samples, spec, [rng])
    return Dataset(images=images[0], labels=labels[0],
                   num_classes=spec.num_classes, name=spec.name)


def load_synthetic_dataset(name: str, num_train: int = 2000,
                           num_test: int = 500,
                           seed: int = 0) -> Tuple[Dataset, Dataset]:
    """Build the train/test split of a synthetic dataset family.

    Parameters
    ----------
    name:
        One of :func:`available_datasets` (``mnist``, ``cifar10``,
        ``cifar100``).
    num_train / num_test:
        Number of training / test samples to generate.
    seed:
        Seed for the dataset generator; the same seed always produces the
        same dataset so experiments are reproducible.
    """
    if name not in DATASET_SPECS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {available_datasets()}")
    spec = DATASET_SPECS[name]
    rng = np.random.default_rng(seed)
    # A single generator call keeps train and test on the same prototypes.
    full = make_classification_images(num_train + num_test, spec, rng)
    train = full.subset(np.arange(num_train), name=f"{spec.name}-train")
    test = full.subset(np.arange(num_train, num_train + num_test),
                       name=f"{spec.name}-test")
    return train, test


@dataclass(frozen=True)
class VirtualClientDatasets:
    """Picklable per-client dataset factory for virtualized fleets.

    ``factory(client_id)`` deterministically generates one logical
    client's local dataset from the fleet-wide spec and a per-client
    seed, so a :class:`~repro.fl.simulation.VirtualFleet` can describe
    millions of clients without the parent (or any shard) ever holding
    more than one chunk of clients' samples at a time.
    ``factory.batch(client_ids)`` generates a whole chunk in one stacked
    pass — the ``(C, n, c, h, w)`` images and ``(C, n)`` labels whose
    slice ``j`` is byte-identical to ``factory(client_ids[j])`` (both
    are the float64 synthesis rounded once by ``Dataset``); having
    it is what lets a shard synthesise a chunk without a Python round
    trip per client.  Being a frozen dataclass of a library module, the
    factory pickles by reference and unpickles inside worker processes
    and external shard servers alike.
    """

    spec: SyntheticImageSpec
    samples_per_client: int
    seed: int = 0

    def __post_init__(self) -> None:
        if (not isinstance(self.samples_per_client, (int, np.integer))
                or self.samples_per_client <= 0):
            raise ValueError("samples_per_client must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")

    def _rng(self, client_id: int) -> np.random.Generator:
        return np.random.default_rng(self.seed + client_id)

    def __call__(self, client_id: int) -> Dataset:
        return make_classification_images(self.samples_per_client,
                                          self.spec, self._rng(client_id))

    def batch(self, client_ids: Sequence[int]
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(images, labels)`` of ``client_ids``' datasets."""
        images, labels = _synthesise(
            self.samples_per_client, self.spec,
            [self._rng(client_id) for client_id in client_ids])
        # Dataset's validation and rounding, once for the chunk instead
        # of per client.
        chunk = Dataset(images=images.reshape((-1,) + images.shape[2:]),
                        labels=labels.reshape(-1),
                        num_classes=self.spec.num_classes,
                        name=self.spec.name)
        return chunk.images.reshape(images.shape), labels
