"""Plain top-k magnitude sparsification (no error feedback).

This is the memoryless ancestor of DGC: keep the ``k`` largest-
magnitude coordinates, drop the rest.  Used as an ablation baseline to
show why DGC's residual accumulation matters.
"""

from __future__ import annotations

import numpy as np

from repro.blocks import row_blocks
from repro.compression.base import CompressedGradient, Compressor, scatter_dense
from repro.wire.codecs import predicted_payload_nbytes

__all__ = ["topk_indices", "TopKCompressor"]


def topk_indices(
    values: np.ndarray, k: int, magnitudes: np.ndarray | None = None
) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude entries of a flat vector,
    sorted ascending (deterministic).

    The k-th largest magnitude comes from an in-place ``partition`` of
    ``magnitudes`` — ``|values|``, which a caller that no longer needs
    it may pass in as scratch (it is clobbered); otherwise it is
    allocated here.  When exactly ``k`` entries reach that magnitude
    they are the only possible answer, and one blocked pass collects
    them already sorted.  Anything else — a tie across the boundary, a
    NaN — takes the ``argpartition`` (introselect) path, which is
    deterministic for identical inputs, ties included.  Both paths
    select the same set.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    d = values.size
    if k >= d:
        return np.arange(d, dtype=np.intp)
    if magnitudes is None:
        magnitudes = np.abs(values)
    magnitudes.partition(d - k)
    idx = _indices_at_least(values, magnitudes[d - k], k, magnitudes)
    if idx is None:
        # argpartition gets the top-k set in O(d); only the index sort
        # is needed on top.
        idx = np.sort(np.argpartition(-np.abs(values), k - 1)[:k])
    return idx


def _indices_at_least(
    values: np.ndarray, kth, k: int, scratch: np.ndarray
) -> np.ndarray | None:
    """Ascending indices with ``|values| >= kth`` if exactly ``k``
    entries qualify, else None; ``|values|`` is staged block by block
    in the head of ``scratch``, which stays in cache."""
    if kth != kth:  # NaN: nothing compares >= it
        return None
    out = np.empty(k, dtype=np.intp)
    count = start = 0
    for rows in row_blocks(values):
        block = values[rows]
        hits = np.flatnonzero(np.abs(block, out=scratch[: block.size]) >= kth)
        end = count + hits.size
        if end > k:
            return None
        np.add(hits, start, out=out[count:end])
        count, start = end, start + block.size
    return out if count == k else None


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
