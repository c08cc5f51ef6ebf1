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
from repro.wire.frame import Frame
from repro.wire.sizes import dense_bytes

__all__ = [
    "dense_bytes",
    "CompressedGradient",
    "Compressor",
    "scatter_dense",
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


def scatter_dense(payload: CompressedGradient) -> np.ndarray:
    """The dense float64 vector a sparse (indices, values) payload stands for."""
    dense = np.zeros(payload.dim, dtype=np.float64)
    # reprolint: allow[R403] sparse decompression is a scatter by design
    dense[np.asarray(payload.data["indices"], dtype=np.int64)] = payload.data["values"]
    return dense


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

    def decompress(self, payload: CompressedGradient) -> np.ndarray:
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
        """Compress then decompress; convenience for tests/metrics."""
        payload = self.compress(grad)
        return self.decompress(payload), payload
