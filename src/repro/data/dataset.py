"""Dataset container used throughout the federated-learning simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """An in-memory labelled image dataset.

    Attributes
    ----------
    images:
        Array of shape ``(num_samples, channels, height, width)``, stored
        as ``float32`` — the dtype models train in; whatever is passed is
        rounded once, here.
    labels:
        Integer class labels of shape ``(num_samples,)``.
    num_classes:
        Number of distinct classes the task defines (labels may cover a
        subset on Non-IID partitions).
    name:
        Human-readable dataset name, e.g. ``"synthetic-mnist"``.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(
                f"images must be 4-D (n, c, h, w); got {self.images.shape}")
        if self.labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"images ({self.images.shape[0]}) and labels "
                f"({self.labels.shape[0]}) disagree on sample count")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def sample_shape(self) -> Tuple[int, int, int]:
        """``(channels, height, width)`` of one sample."""
        return tuple(self.images.shape[1:])  # type: ignore[return-value]

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "Dataset":
        """New dataset restricted to the given sample indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(images=self.images[indices],
                       labels=self.labels[indices],
                       num_classes=self.num_classes,
                       name=name or self.name)

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """New dataset with samples shuffled."""
        order = rng.permutation(len(self))
        return self.subset(order)

    def split(self, fraction: float, rng: Optional[np.random.Generator] = None
              ) -> Tuple["Dataset", "Dataset"]:
        """Split into two datasets; the first receives ``fraction`` of samples."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        order = (rng.permutation(len(self)) if rng is not None
                 else np.arange(len(self)))
        cut = int(round(fraction * len(self)))
        return (self.subset(order[:cut], name=f"{self.name}-a"),
                self.subset(order[cut:], name=f"{self.name}-b"))

    def class_counts(self) -> np.ndarray:
        """Number of samples per class (length ``num_classes``)."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def batches(self, batch_size: int, rng: Optional[np.random.Generator] = None,
                drop_last: bool = False
                ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(images, labels)`` mini-batches, optionally shuffled."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = (rng.permutation(len(self)) if rng is not None
                 else np.arange(len(self)))
        for start in range(0, len(self), batch_size):
            chunk = order[start:start + batch_size]
            if drop_last and chunk.size < batch_size:
                break
            yield self.images[chunk], self.labels[chunk]
