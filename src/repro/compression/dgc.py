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

import os
import tempfile
import weakref
import zlib
from collections import OrderedDict

import numpy as np

from repro.blocks import row_blocks
from repro.compression.base import CompressedGradient, Compressor, SparseDelta
from repro.compression.topk import topk_indices
from repro.wire.codecs import predicted_payload_nbytes
from repro.wire.frame import FrameCorruptionError

__all__ = ["DGCCompressor", "DGCStateStore"]


class DGCStateStore:
    """The one place the DGC compressors of a federation keep their state.

    It holds two things.  The float32 ``|residual|`` scratch DGC's
    top-k partitions in place (:meth:`buffer`): ``compress`` also
    stages each block of the incoming gradient there, so what it holds
    is dead once ``compress`` returns and every compressor of one
    dimension borrows the same one, the way clients borrow a
    :class:`~repro.fl.replica.ModelReplica`.  And each compressor's
    float32 ``(velocity, residual)`` pair, which a compressor holds
    only once it has compressed.

    With ``cap=None`` every compressor owns its pair.  With a ``cap``
    at most ``cap`` compressors are *resident*: they hold one of at
    most ``cap`` pooled pairs, least recently used first.  A compressor
    that needs a pair when none is free takes the least recently used
    one's, which is first *parked*: written with ``os.pwritev`` to a
    slot of one unlinked temporary file, with a CRC-32 of the pair.
    Its next access reads it back in place with ``os.preadv`` and
    raises :class:`~repro.wire.frame.FrameCorruptionError` on a CRC
    mismatch or a short read, so a corrupt state never turns into
    zeros.  Parking is bit-exact: a cap moves bytes between RAM and
    the file, never a result.

    Compressors are tracked by weak reference: one that dies gives its
    pair back to the pool and its slot back to the file.  The store
    pickles as ``dim`` and ``cap`` alone; a compressor carries its own
    state inline (:meth:`DGCCompressor.__getstate__`).
    """

    def __init__(self, dim: int, cap: int | None = None):
        if cap is not None and cap < 1:
            raise ValueError("cap must be at least 1 (None: unbounded)")
        self.dim = dim
        self.cap = cap
        self._buffer: np.ndarray | None = None
        self._resident: OrderedDict = OrderedDict()  # weakref -> pair, LRU first
        self._parked: dict = {}  # weakref -> (slot, crc)
        self._pool: list[tuple[np.ndarray, np.ndarray]] = []  # pairs nobody holds
        self._pairs = 0  # pairs allocated (at most cap)
        self._file = None
        self._slots = 0  # slots the file has had
        self._free_slots: list[int] = []
        self.parks = 0
        self.reloads = 0

    def __getstate__(self) -> dict:
        return {"dim": self.dim, "cap": self.cap}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["dim"], state["cap"])

    def buffer(self) -> np.ndarray:
        """The float32 scratch vector (contents undefined)."""
        buf = self._buffer
        if buf is None:
            buf = self._buffer = np.empty(self.dim, dtype=np.float32)
        return buf

    # -- what a compressor asks of its store -----------------------------
    def touch(self, comp: "DGCCompressor") -> None:
        """Mark resident ``comp`` most recently used."""
        if comp._ref is not None:
            self._resident.move_to_end(comp._ref)

    def load(self, comp: "DGCCompressor", create: bool) -> bool:
        """Make ``comp``'s state resident, reloading a parked pair; with
        ``create`` a compressor that holds nothing gets a zeroed one.
        False when ``comp`` holds nothing and ``create`` is False."""
        parked = self._parked.get(comp._ref)
        if parked is None and not create:
            return False
        pair = self._take()
        if parked is None:
            for arr in pair:
                arr.fill(0.0)
        else:
            try:
                self._read(parked, pair)
            except FrameCorruptionError:
                if self.cap is not None:
                    self._pool.append(pair)
                raise
            del self._parked[comp._ref]
            self._free_slots.append(parked[0])
            self.reloads += 1
        self._hold(comp, pair)
        return True

    def read(self, comp: "DGCCompressor") -> tuple[np.ndarray, np.ndarray]:
        """``comp``'s state as fresh arrays, never its resident pair:
        a parked pair is read back from its slot, and a compressor that
        holds nothing reads as zeros."""
        if comp._velocity is not None:
            return comp._velocity.copy(), comp._residual.copy()
        pair = np.zeros(self.dim, np.float32), np.zeros(self.dim, np.float32)
        parked = self._parked.get(comp._ref)
        if parked is not None:
            self._read(parked, pair)
        return pair

    def adopt(self, comp: "DGCCompressor", velocity, residual) -> None:
        """Replace ``comp``'s state by a copy of ``(velocity, residual)``.

        It is resident while a pair is free or the cap has room, and
        parked straight to the file otherwise.  Under a cap, an
        all-zero state (what a compressor that never compressed
        exports) is held as nothing, bit for bit the same state.
        """
        self.drop(comp)
        velocity = np.ascontiguousarray(velocity, dtype=np.float32)
        residual = np.ascontiguousarray(residual, dtype=np.float32)
        if velocity.shape != (self.dim,) or residual.shape != (self.dim,):
            raise ValueError("DGC state dimensionality mismatch")
        if self.cap is not None:
            # The uint32 view sees the sign bit, so -0.0 is not zero here.
            if not (velocity.view(np.uint32).any() or residual.view(np.uint32).any()):
                return
            if not self._pool and self._pairs >= self.cap:
                self._write(self._track(comp), (velocity, residual))
                return
        pair = self._take()
        np.copyto(pair[0], velocity)
        np.copyto(pair[1], residual)
        self._hold(comp, pair)

    def drop(self, comp: "DGCCompressor") -> None:
        """Release whatever ``comp`` holds: it then holds nothing."""
        if comp._ref is not None:
            self._forget(comp._ref)
        comp._velocity = comp._residual = None

    # -- pairs and slots -------------------------------------------------
    def _take(self) -> tuple[np.ndarray, np.ndarray]:
        """A pair for a compressor about to become resident (contents
        undefined): a free one, a new one while the cap has room, else
        the least recently used compressor's, parked first."""
        if self._pool:
            return self._pool.pop()
        if self.cap is None or self._pairs < self.cap:
            self._pairs += 1
            return np.empty(self.dim, np.float32), np.empty(self.dim, np.float32)
        ref, pair = next(iter(self._resident.items()))
        self._write(ref, pair)
        victim = ref()
        victim._velocity = victim._residual = None
        del self._resident[ref]
        return pair

    def _track(self, comp: "DGCCompressor") -> weakref.ref:
        ref = comp._ref
        if ref is None:
            ref = comp._ref = weakref.ref(comp, self._forget)
        return ref

    def _hold(self, comp: "DGCCompressor", pair: tuple[np.ndarray, np.ndarray]) -> None:
        comp._velocity, comp._residual = pair
        if self.cap is not None:
            self._resident[self._track(comp)] = pair

    def _forget(self, ref: weakref.ref) -> None:
        """Return what ``ref``'s compressor held (also its death callback)."""
        pair = self._resident.pop(ref, None)
        if pair is not None:
            self._pool.append(pair)
        parked = self._parked.pop(ref, None)
        if parked is not None:
            self._free_slots.append(parked[0])

    def _write(self, ref: weakref.ref, pair) -> None:
        """Park ``pair`` as ``ref``'s state in a free slot of the file."""
        if self._file is None:
            self._file = tempfile.TemporaryFile(prefix="dgc-state-")
            weakref.finalize(self, self._file.close)
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot, self._slots = self._slots, self._slots + 1
        nbytes = 8 * self.dim
        try:
            written = os.pwritev(self._file.fileno(), pair, slot * nbytes)
            if written != nbytes:
                raise OSError(f"short write parking DGC state ({written} of {nbytes} B)")
        except OSError:
            self._free_slots.append(slot)
            raise
        velocity, residual = pair
        self._parked[ref] = (slot, zlib.crc32(residual, zlib.crc32(velocity)))
        self.parks += 1

    def _read(self, parked: tuple[int, int], pair) -> None:
        """Read a parked slot into ``pair``; fail closed on damage."""
        slot, crc = parked
        nbytes = 8 * self.dim
        got = os.preadv(self._file.fileno(), pair, slot * nbytes)
        if got != nbytes:
            raise FrameCorruptionError(
                f"short read of parked DGC state ({got} of {nbytes} B)"
            )
        velocity, residual = pair
        if zlib.crc32(residual, zlib.crc32(velocity)) != crc:
            raise FrameCorruptionError("parked DGC state fails its CRC-32 check")


class DGCCompressor(Compressor):
    """Stateful DGC compressor for one client.

    Momentum and residual are float32 — the width every value leaves
    for the wire at, and the width of DGC's reference implementation.
    The (clipped) float64 gradient is rounded to float32 once, as it
    enters the chain; the clip norm is still a float64 reduction over
    the caller's gradient.  Payload values are a plain gather of the
    residual, so :meth:`restore` puts a lost payload back exactly.

    ``scratch`` is the :class:`DGCStateStore` that holds the magnitude
    buffer ``compress`` borrows and this compressor's state pair;
    compressors built without one get a private, unbounded store.  The
    pair exists only once the compressor has compressed (or imported a
    state), and under a capped store it may be parked in the store's
    file between uses: every method that reads it reloads it first.
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
        scratch: DGCStateStore | None = None,
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
            scratch = DGCStateStore(dim)
        elif scratch.dim != dim:
            raise ValueError(f"scratch of dim {scratch.dim} for a dim-{dim} compressor")
        self._scratch = scratch
        self._ref: weakref.ref | None = None  # the store's handle, once it tracks us
        # The resident pair, None while there is none (or it is parked).
        self._velocity: np.ndarray | None = None  # u_t in the DGC paper
        self._residual: np.ndarray | None = None  # v_t in the DGC paper

    def _state(self, create: bool) -> bool:
        """Make the state pair resident (``create``: zeroed if there is
        none yet); False when there is none and ``create`` is False."""
        if self._velocity is not None:
            self._scratch.touch(self)
            return True
        return self._scratch.load(self, create)

    def __getstate__(self) -> dict:
        # A parked state travels inline, so a pickle needs no store file.
        state = self.__dict__.copy()
        del state["_ref"]
        state["_velocity"], state["_residual"] = self._scratch.read(self)
        return state

    def __setstate__(self, state: dict) -> None:
        velocity, residual = state.pop("_velocity"), state.pop("_residual")
        self.__dict__.update(state)
        self._ref = None
        self._scratch.adopt(self, velocity, residual)

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
        self._state(create=True)
        velocity, residual = self._velocity, self._residual
        magnitudes = self._scratch.buffer()
        # One blocked pass: clip -> momentum -> residual -> |residual|.
        # The (clipped) gradient block is rounded to float32 into the
        # magnitude block the chain overwrites last — the chain's one
        # rounding point — so the caller's array is never scaled in
        # place and no d-sized temporary is made.
        for rows in row_blocks(residual):
            g, mag, r = grad[rows], magnitudes[rows], residual[rows]
            if scale is None:
                np.copyto(mag, g, casting="same_kind")
            else:
                np.multiply(g, scale, out=mag)
            g = mag
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
        # The float32 wire payload is one gather: fancy indexing
        # already yields an array independent of the residual buffer,
        # so payload mutation can never corrupt compressor state.
        values = residual[idx]

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

    def decompress(self, payload: CompressedGradient) -> SparseDelta:
        """The payload as the server folds it: a view of its own arrays."""
        if payload.method != self.name:
            raise ValueError(f"payload method {payload.method!r} is not {self.name!r}")
        return SparseDelta.of(payload)

    def restore(self, payload: CompressedGradient) -> None:
        """Return a lost payload's values to the residual buffer.

        ``compress`` clears transmitted coordinates optimistically; a
        deployment only discards them once the server ACKs.  When the
        engine learns a transfer was lost it calls this, so the
        accumulated gradient information survives the loss instead of
        vanishing with the packet.  The values are the residual's own
        float32 entries, so the restore is exact.
        """
        if payload.method != self.name:
            raise ValueError(f"payload method {payload.method!r} is not {self.name!r}")
        if payload.dim != self.dim:
            raise ValueError("payload dimensionality mismatch")
        self._state(create=True)
        # Loss recovery scatter-adds the k lost coords, indexing with the
        # payload's uint32 array itself, as SparseDelta.add_to does.
        self._residual[payload.data["indices"]] += payload.data["values"]

    def reset(self) -> None:
        """Drop residual and momentum state (e.g. after a model resync)."""
        if self._state(create=False):
            self._velocity.fill(0.0)
            self._residual.fill(0.0)

    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Residual/momentum buffers plus the config to rebuild from.

        The hook the client-population eviction machinery uses: an
        evicted client's accumulated gradient information is spilled or
        retained through this dict and later restored bit-exactly via
        :meth:`import_state` (or :meth:`from_state` when no compressor
        was re-attached by a materialization hook).  The buffers are
        fresh copies (zeros for a compressor that never compressed):
        the store hands a pair to another compressor once this one lets
        it go.
        """
        velocity, residual = self._scratch.read(self)
        return {
            "kind": "dgc",
            "dim": self.dim,
            "ratio": self.ratio,
            "momentum": self.momentum,
            "clip_norm": self.clip_norm,
            "num_workers": self.num_workers,
            "use_momentum_correction": self.use_momentum_correction,
            "velocity": velocity,
            "residual": residual,
        }

    def import_state(self, state: dict) -> None:
        """Adopt exported residual/momentum buffers (copied in, as float32)."""
        if state.get("kind") != "dgc":
            raise ValueError(f"cannot import state kind {state.get('kind')!r}")
        if int(state["dim"]) != self.dim:
            raise ValueError("exported state dimensionality mismatch")
        self._scratch.adopt(self, state["velocity"], state["residual"])

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
        """Bytes of residual + momentum buffers resident in RAM (RSS
        accounting): 0 while the pair is parked or was never made."""
        if self._velocity is None:
            return 0
        return self._velocity.nbytes + self._residual.nbytes

    @property
    def residual_norm(self) -> float:
        """L2 norm of untransmitted accumulated gradient (diagnostics)."""
        if not self._state(create=False):
            return 0.0
        return float(np.linalg.norm(self._residual))
