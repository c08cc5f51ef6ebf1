"""QSGD stochastic quantisation (Alistarh et al., NeurIPS 2017).

Quantises each coordinate to one of ``s`` uniform levels of its
vector's L2 norm, with stochastic rounding that keeps the estimator
unbiased.  Serves as the model-level quantisation baseline the paper
cites ([11]).
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import CompressedGradient, Compressor
from repro.wire.codecs import predicted_payload_nbytes

__all__ = ["QSGDCompressor"]


class QSGDCompressor(Compressor):
    """Unbiased stochastic uniform quantiser."""

    name = "qsgd"

    def __init__(self, dim: int, num_levels: int = 16, rng: np.random.Generator | None = None):
        super().__init__(dim)
        if num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        self.num_levels = num_levels
        # Stochastic rounding needs an explicit generator: engine-side
        # callers pass a named kernel stream so two identical runs stay
        # bit-identical.  A silent default_rng() here would decouple a
        # client's rounding noise from the run's seed.
        if rng is None:
            raise ValueError(
                "QSGDCompressor requires an explicit rng; derive it from "
                "kernel.stream(...) in engine code"
            )
        self._rng = rng

    @property
    def bits_per_element(self) -> float:
        """Sign bit plus level bits (no entropy coding)."""
        return 1.0 + math.ceil(math.log2(self.num_levels + 1))

    def compress(
        self, grad: np.ndarray, num_levels: int | None = None
    ) -> CompressedGradient:
        """Quantise ``grad``; ``num_levels`` overrides the default per call.

        The per-call override is what link-quality-driven bit-width
        policies (AdaGQ) use: one compressor per client, with the level
        count varied round by round.  The effective count travels in
        the payload, so :meth:`decompress` never consults compressor
        state.
        """
        grad = self._check_grad(grad)
        effective_levels = self.num_levels if num_levels is None else int(num_levels)
        if effective_levels < 1:
            raise ValueError("num_levels must be >= 1")
        # The norm travels as a float32 scale on the wire; rounding it
        # *before* quantising keeps frame round-trips bit-exact.
        norm = float(np.float32(np.linalg.norm(grad)))
        if norm == 0.0:
            levels = np.zeros(self.dim, dtype=np.int32)
            signs = np.ones(self.dim, dtype=np.int8)
        else:
            scaled = np.abs(grad) / norm * effective_levels
            floor = np.floor(scaled)
            prob = scaled - floor
            levels = (floor + (self._rng.random(self.dim) < prob)).astype(np.int32)
            # float32 norm rounding can nudge the dominant coordinate a
            # hair past 1.0 of the norm; its level stays representable.
            np.minimum(levels, effective_levels, out=levels)
            signs = np.where(grad < 0, -1, 1).astype(np.int8)
        data = {
            "norm": norm,
            "levels": levels,
            "signs": signs,
            "num_levels": effective_levels,
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
        norm = payload.data["norm"]
        if norm == 0.0:
            return np.zeros(payload.dim, dtype=np.float64)
        # The payload carries its own level count (set per call by
        # adaptive-bit-width policies).  One without it is a KeyError:
        # decoding with another count would silently rescale the gradient.
        num_levels = int(payload.data["num_levels"])
        levels = payload.data["levels"].astype(np.float64)
        signs = payload.data["signs"].astype(np.float64)
        return signs * levels * (norm / num_levels)
