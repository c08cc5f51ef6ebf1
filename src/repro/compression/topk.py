"""Plain top-k magnitude sparsification (no error feedback).

This is the memoryless ancestor of DGC: keep the ``k`` largest-
magnitude coordinates, drop the rest.  Used as an ablation baseline to
show why DGC's residual accumulation matters.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedGradient, Compressor, scatter_dense
from repro.wire.codecs import predicted_payload_nbytes

__all__ = ["topk_indices", "TopKCompressor"]


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude entries (deterministic).

    ``argpartition`` (introselect) is deterministic for identical
    inputs, so repeated calls on equal arrays — ties included — select
    identical support sets.  Returned indices are sorted ascending.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k >= values.size:
        return np.arange(values.size, dtype=np.intp)
    # argpartition gets the top-k set in O(d); only the index sort is
    # needed on top — any further ordering of the k selected entries
    # by magnitude would be discarded by it anyway.
    part = np.argpartition(-np.abs(values), k - 1)[:k]
    return np.sort(part)


class TopKCompressor(Compressor):
    """Keep a fixed fraction of coordinates by magnitude."""

    name = "topk"

    def __init__(self, dim: int, ratio: float):
        """``ratio`` is the compression ratio: keep ``d / ratio`` entries."""
        super().__init__(dim)
        if ratio < 1.0:
            raise ValueError("compression ratio must be >= 1")
        self.ratio = ratio

    @property
    def k(self) -> int:
        """Number of retained coordinates (always at least 1)."""
        return max(1, int(round(self.dim / self.ratio)))

    def compress(self, grad: np.ndarray) -> CompressedGradient:
        grad = self._check_grad(grad)
        idx = topk_indices(grad, self.k)
        data = {
            "indices": idx.astype(np.uint32),
            "values": grad[idx].astype(np.float32),
        }
        return CompressedGradient(
            method=self.name,
            dim=self.dim,
            num_bytes=predicted_payload_nbytes(self.name, self.dim, data),
            data=data,
        )

    def decompress(self, payload: CompressedGradient) -> np.ndarray:
        if payload.method != self.name:
            raise ValueError(f"payload method {payload.method!r} is not {self.name!r}")
        return scatter_dense(payload)
