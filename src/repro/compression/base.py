"""Compressor interface and payload byte accounting.

Every compressor turns a flat gradient vector into a
:class:`CompressedGradient` carrying both the information needed to
reconstruct a dense vector and an honest *wire size* in bytes.  Byte
accounting is how the reproduction measures the paper's headline
metric (60–78% communication-cost reduction).  The size models live in
:mod:`repro.wire.sizes` next to the frame codecs whose encoded lengths
they predict exactly;
:meth:`CompressedGradient.to_frame` /
:meth:`CompressedGradient.from_frame` are the bridge between a payload
dict and its :class:`~repro.wire.frame.Frame` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.wire.codecs import decode_frame, encode_frame
from repro.wire.frame import Frame, FrameError
from repro.wire.sizes import dense_bytes

__all__ = [
    "dense_bytes",
    "CompressedGradient",
    "Compressor",
    "SparseDelta",
    "densify",
]


@dataclass
class CompressedGradient:
    """A gradient as it would travel on the wire."""

    method: str
    dim: int
    num_bytes: int
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim < 0 or self.num_bytes < 0:
            raise ValueError("dim and num_bytes must be non-negative")

    @property
    def compression_ratio(self) -> float:
        """Dense size divided by wire size (>= 1 means smaller)."""
        if self.num_bytes == 0:
            return float("inf")
        return dense_bytes(self.dim) / self.num_bytes

    def to_frame(self, model_version: int = 0) -> Frame:
        """Encode this payload into a wire frame.

        The frame's payload length always equals :attr:`num_bytes` —
        the analytic sizes are predictions of real encode lengths, and
        the tier-1 codec tests pin the two together.
        """
        return encode_frame(self.method, self.dim, self.data, model_version)

    @classmethod
    def from_frame(cls, frame: Frame) -> "CompressedGradient":
        """Rebuild a payload from a (CRC-verified) frame.

        Transport metadata that never travels (e.g. DGC's ``ratio``
        hint) is absent from the result; the decompressed dense vector
        is bit-identical to the sender's.
        """
        method, data = decode_frame(frame)
        return cls(
            method=method,
            dim=frame.dim,
            num_bytes=frame.payload_nbytes,
            data=data,
        )


@dataclass(eq=False)
class SparseDelta:
    """A sparse codec's decoded upload, kept as its wire arrays.

    Stands for the dense float64 ``dim``-vector holding ``values`` at
    ``indices`` and ``0.0`` everywhere else, without building it: the
    server folds it by index (:class:`repro.fl.strategy.WeightedFold`)
    and the few consumers that need every coordinate call
    :func:`densify`.  ``indices`` are held at the wire's uint32 width and
    ``values`` as the codec gave them (float32), so a delivery costs its
    payload bytes, not ``8 * dim``.

    An index at or past ``dim``, or one listed twice, raises
    :class:`~repro.wire.frame.FrameError`: a scatter keeps only the last
    of two values where a fold by index or a screen over ``values``
    would see both, so such a payload has no single meaning.
    """

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = idx = np.asarray(self.indices, dtype=np.uint32)
        if idx.ndim != 1 or idx.shape != np.shape(self.values):
            raise FrameError("sparse delta index/value count mismatch")
        if idx.size == 0:
            return
        # Codecs emit ascending indices: one comparison pass proves them
        # distinct, and then the last one is the largest.
        if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
            if np.unique(idx).size != idx.size:
                raise FrameError("sparse delta lists an index twice")
            top = int(idx.max())
        else:
            top = int(idx[-1])
        if top >= self.dim:
            raise FrameError(f"sparse delta index {top} out of range for dim {self.dim}")

    @classmethod
    def of(cls, payload: CompressedGradient) -> "SparseDelta":
        """The view of a sparse ``(indices, values)`` payload (no copy)."""
        return cls(payload.dim, payload.data["indices"], payload.data["values"])

    @property
    def size(self) -> int:
        """Length of the dense vector this stands for (as ``ndarray.size``)."""
        return self.dim

    @property
    def nbytes(self) -> int:
        """Bytes actually held: the index and value arrays."""
        return self.indices.nbytes + self.values.nbytes

    def to_dense(self) -> np.ndarray:
        """A fresh dense float64 vector with the values scattered in."""
        dense = np.zeros(self.dim, dtype=np.float64)
        dense[self.indices] = self.values
        return dense

    def add_to(self, acc: np.ndarray, weight: float) -> None:
        """``acc += weight * self.to_dense()``, bit for bit, on the support only.

        Off the support the dense fold adds ``weight * 0.0``, a zero,
        which changes no accumulator value: ``acc`` starts at ``+0.0``
        and a float sum reaches ``-0.0`` only as ``-0.0 + -0.0``, so
        ``acc`` never holds ``-0.0``.
        """
        if acc.shape != (self.dim,):
            raise ValueError(f"sparse delta of dim {self.dim} added to shape {acc.shape}")
        # Index with the uint32 array itself: an intp copy would save one
        # conversion but hold 8 more bytes per index at the aggregation
        # peak (measured +0.7 MiB on the wide MLP).
        acc[self.indices] += np.multiply(self.values, weight, dtype=np.float64)


def densify(delta: np.ndarray | SparseDelta) -> np.ndarray:
    """The dense vector behind an upload delta (a dense one as it is).

    The one way the off-default consumers — trimmed mean, the norm
    screen, payload corruption, FedAsync's model mix —
    get every coordinate of a :class:`SparseDelta`.
    """
    return delta.to_dense() if isinstance(delta, SparseDelta) else delta


class Compressor:
    """Base class for gradient compressors.

    Stateful compressors (e.g. DGC residual accumulation) keep
    per-instance state, so federated engines create one compressor per
    client.
    """

    name = "base"

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def compress(self, grad: np.ndarray) -> CompressedGradient:
        raise NotImplementedError

    def decompress(self, payload: CompressedGradient) -> np.ndarray | SparseDelta:
        """What the server folds for ``payload``.

        Dense codecs return the reconstructed float64 vector; sparse
        codecs (DGC, top-k) return the :class:`SparseDelta` view of the
        payload's own arrays, which :func:`densify` expands where a
        consumer needs every coordinate.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any accumulated state (default: stateless no-op)."""

    def export_state(self) -> dict:
        """Accumulated state for eviction/spill (default: stateless).

        The dict must round-trip through :meth:`import_state` on a
        freshly built compressor of the same configuration and must
        carry a ``"kind"`` tag naming the compressor family.
        """
        return {"kind": "stateless"}

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output (default: stateless)."""
        if state.get("kind") != "stateless":
            raise ValueError(f"cannot import state kind {state.get('kind')!r}")

    def state_nbytes(self) -> int:
        """Bytes of accumulated state (population RSS accounting)."""
        return 0

    def _check_grad(self, grad: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.ndim != 1 or grad.size != self.dim:
            raise ValueError(
                f"expected flat gradient of size {self.dim}, got shape {grad.shape}"
            )
        return grad

    def roundtrip(self, grad: np.ndarray) -> tuple[np.ndarray, CompressedGradient]:
        """Compress then decompress to a dense vector; convenience for tests/metrics."""
        payload = self.compress(grad)
        return densify(self.decompress(payload)), payload
