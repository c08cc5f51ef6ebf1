"""Deep Gradient Compression (Lin et al., ICLR 2018).

DGC is the compression engine AdaFL builds on (paper §IV, "Adaptive
Gradient Compression").  Its four ingredients, all implemented here:

1. **Top-k sparsification** — only the largest-magnitude accumulated
   gradient coordinates are transmitted.
2. **Residual (error) accumulation** — untransmitted coordinates stay
   in a local buffer and keep growing until they matter.
3. **Momentum correction** — the residual accumulates *momentum-
   corrected* gradients (a local momentum buffer) rather than raw
   gradients, so sparse updates approximate what dense momentum SGD
   would have applied.
4. **Local gradient clipping** — the incoming gradient's norm is
   clipped *before* accumulation (scaled by ``1/sqrt(num_workers)``
   per the DGC paper) to keep high compression from destabilising
   training.

Unlike the static DGC paper, AdaFL changes the compression ratio every
round, so :meth:`DGCCompressor.compress` takes an optional per-call
``ratio`` override — the hook the adaptive policy in
:mod:`repro.core.compression_policy` drives.
"""

from __future__ import annotations

import numpy as np

from repro.blocks import row_blocks
from repro.compression.base import CompressedGradient, Compressor, scatter_dense
from repro.compression.topk import topk_indices
from repro.wire.codecs import predicted_payload_nbytes

__all__ = ["DGCCompressor", "MagnitudeScratch"]


class MagnitudeScratch:
    """The ``|residual|`` buffer DGC's top-k partitions in place.

    What it holds is dead once :meth:`DGCCompressor.compress` returns,
    so every compressor of one dimension can *borrow* the same one, the
    way clients borrow a :class:`~repro.fl.replica.ModelReplica`: whoever
    builds a federation's compressors hands each the same scratch.  The
    buffer is allocated on first use and never pickled.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._buffer: np.ndarray | None = None

    def buffer(self) -> np.ndarray:
        """The float64 scratch vector (contents undefined)."""
        buf = self._buffer
        if buf is None:
            buf = self._buffer = np.empty(self.dim, dtype=np.float64)
        return buf

    def __getstate__(self) -> dict:
        return {"dim": self.dim, "_buffer": None}


class DGCCompressor(Compressor):
    """Stateful DGC compressor for one client.

    ``scratch`` is the magnitude buffer ``compress`` borrows; compressors
    built without one get a private scratch.
    """

    name = "dgc"

    def __init__(
        self,
        dim: int,
        ratio: float = 100.0,
        momentum: float = 0.9,
        clip_norm: float | None = 5.0,
        num_workers: int = 1,
        use_momentum_correction: bool = True,
        scratch: MagnitudeScratch | None = None,
    ):
        super().__init__(dim)
        if ratio < 1.0:
            raise ValueError("compression ratio must be >= 1")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if clip_norm is not None and clip_norm <= 0:
            raise ValueError("clip_norm must be positive or None")
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.ratio = ratio
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.num_workers = num_workers
        self.use_momentum_correction = use_momentum_correction
        if scratch is None:
            scratch = MagnitudeScratch(dim)
        elif scratch.dim != dim:
            raise ValueError(f"scratch of dim {scratch.dim} for a dim-{dim} compressor")
        self._scratch = scratch
        self._velocity = np.zeros(dim, dtype=np.float64)  # u_t in the DGC paper
        self._residual = np.zeros(dim, dtype=np.float64)  # v_t in the DGC paper

    # ------------------------------------------------------------------
    def _clip_scale(self, grad: np.ndarray) -> float | None:
        """Local gradient clipping scaled for ``num_workers`` (DGC §3.3):
        the factor to scale ``grad`` by, or None to leave it as is."""
        if self.clip_norm is None:
            return None
        threshold = self.clip_norm / np.sqrt(self.num_workers)
        norm = float(np.linalg.norm(grad))
        if norm > threshold:
            return threshold / norm
        return None

    def compress(
        self, grad: np.ndarray, ratio: float | None = None
    ) -> CompressedGradient:
        """Accumulate ``grad`` and emit the top coordinates.

        ``ratio`` overrides the instance ratio for this call — the
        entry point for AdaFL's adaptive schedule.
        """
        grad = self._check_grad(grad)
        effective_ratio = self.ratio if ratio is None else float(ratio)
        if effective_ratio < 1.0:
            raise ValueError("compression ratio must be >= 1")

        scale = self._clip_scale(grad)
        velocity, residual = self._velocity, self._residual
        magnitudes = self._scratch.buffer()
        # One blocked pass: clip -> momentum -> residual -> |residual|.
        # A clipped gradient block is staged in the magnitude block the
        # chain overwrites last, so the caller's array is never scaled
        # in place and no d-sized temporary is made.
        for rows in row_blocks(residual):
            g, mag, r = grad[rows], magnitudes[rows], residual[rows]
            if scale is not None:
                g = np.multiply(g, scale, out=mag)
            if self.use_momentum_correction:
                v = velocity[rows]
                v *= self.momentum
                v += g
                r += v
            else:
                r += g
            np.abs(r, out=mag)

        k = max(1, int(round(self.dim / effective_ratio)))
        idx = topk_indices(residual, k, magnitudes)
        # One gather straight into the float32 wire payload: fancy
        # indexing + astype already yield an array independent of the
        # residual buffer, so payload mutation can never corrupt
        # compressor state.
        values = residual[idx].astype(np.float32)

        # Transmitted coordinates leave both buffers (DGC Algorithm 1).
        residual[idx] = 0.0
        if self.use_momentum_correction:
            velocity[idx] = 0.0

        data = {
            "indices": idx.astype(np.uint32),
            "values": values,
            "ratio": effective_ratio,
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

    def restore(self, payload: CompressedGradient) -> None:
        """Return a lost payload's values to the residual buffer.

        ``compress`` clears transmitted coordinates optimistically; a
        deployment only discards them once the server ACKs.  When the
        engine learns a transfer was lost it calls this, so the
        accumulated gradient information survives the loss instead of
        vanishing with the packet.
        """
        if payload.method != self.name:
            raise ValueError(f"payload method {payload.method!r} is not {self.name!r}")
        if payload.dim != self.dim:
            raise ValueError("payload dimensionality mismatch")
        idx = payload.data["indices"].astype(np.int64)
        # reprolint: allow[R403] loss recovery scatter-adds the k lost coords
        self._residual[idx] += payload.data["values"].astype(np.float64)

    def reset(self) -> None:
        """Drop residual and momentum state (e.g. after a model resync)."""
        self._velocity.fill(0.0)
        self._residual.fill(0.0)

    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Residual/momentum buffers plus the config to rebuild from.

        The hook the client-population eviction machinery uses: an
        evicted client's accumulated gradient information is spilled or
        retained through this dict and later restored bit-exactly via
        :meth:`import_state` (or :meth:`from_state` when no compressor
        was re-attached by a materialization hook).
        """
        return {
            "kind": "dgc",
            "dim": self.dim,
            "ratio": self.ratio,
            "momentum": self.momentum,
            "clip_norm": self.clip_norm,
            "num_workers": self.num_workers,
            "use_momentum_correction": self.use_momentum_correction,
            "velocity": self._velocity,
            "residual": self._residual,
        }

    def import_state(self, state: dict) -> None:
        """Adopt exported residual/momentum buffers (copied in)."""
        if state.get("kind") != "dgc":
            raise ValueError(f"cannot import state kind {state.get('kind')!r}")
        if int(state["dim"]) != self.dim:
            raise ValueError("exported state dimensionality mismatch")
        self._velocity = np.array(state["velocity"], dtype=np.float64)
        self._residual = np.array(state["residual"], dtype=np.float64)

    @classmethod
    def from_state(cls, state: dict) -> "DGCCompressor":
        """Rebuild a compressor entirely from :meth:`export_state` output."""
        comp = cls(
            dim=int(state["dim"]),
            ratio=float(state["ratio"]),
            momentum=float(state["momentum"]),
            clip_norm=state["clip_norm"],
            num_workers=int(state["num_workers"]),
            use_momentum_correction=bool(state["use_momentum_correction"]),
        )
        comp.import_state(state)
        return comp

    def state_nbytes(self) -> int:
        """Bytes of residual + momentum buffers (RSS accounting)."""
        return self._velocity.nbytes + self._residual.nbytes

    @property
    def residual_norm(self) -> float:
        """L2 norm of untransmitted accumulated gradient (diagnostics)."""
        return float(np.linalg.norm(self._residual))
