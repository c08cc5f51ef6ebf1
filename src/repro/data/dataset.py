"""In-memory labelled dataset with deterministic batching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """A fixed array dataset: features ``x`` and integer labels ``y``.

    ``x`` has shape (N, ...) — typically (N, C, H, W) for images — and
    ``y`` has shape (N,).  Instances are immutable; partitioning
    produces index-based views copied into new ``Dataset`` objects.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x has {self.x.shape[0]} samples but y has {self.y.shape[0]}"
            )
        if self.y.ndim != 1:
            raise ValueError("labels must be a 1-D integer array")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if len(self) and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def input_shape(self) -> tuple[int, ...]:
        """Per-sample feature shape (excludes the batch dimension)."""
        return self.x.shape[1:]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Dataset restricted to ``indices`` (copied, order preserved)."""
        # Indexing with an integer array always allocates: no .copy().
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            x=self.x[indices],
            y=self.y[indices],
            num_classes=self.num_classes,
            name=self.name,
        )

    def batches(self, batch_size: int, rng: np.random.Generator | None = None):
        """Yield (x, y) minibatches; shuffled when an RNG is given.

        The final short batch is included, matching the behaviour FL
        clients expect when local datasets are tiny.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        n = len(self)
        order = np.arange(n)
        if rng is not None:
            rng.shuffle(order)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            yield self.x[idx], self.y[idx]

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, shape (num_classes,)."""
        return np.bincount(self.y, minlength=self.num_classes)

    def split(self, fraction: float, rng: np.random.Generator) -> tuple["Dataset", "Dataset"]:
        """Random split into (first, second) with ``fraction`` in the first."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        n = len(self)
        order = rng.permutation(n)
        cut = int(round(n * fraction))
        return self.subset(order[:cut]), self.subset(order[cut:])
