"""Parameter subspaces: index-set views over the flat parameter buffer.

The flat-parameter engine (:mod:`repro.nn.sequential`) treats a model
as one vector ``w ∈ R^d``.  A :class:`ParamSubspace` names a subset of
those ``d`` coordinates — sorted, duplicate-free indices — so every
layer of the stack can speak about *partial* models: Adaptive
Federated Dropout ships per-client sub-model updates, the wire layer
encodes masked payloads (index block + values), and aggregation folds
deltas that only cover some coordinates.

Three invariants keep the abstraction cheap and safe:

* indices are canonical (``int64``, strictly increasing) so two
  subspaces over the same coordinates compare equal and produce
  byte-identical wire encodings;
* the full subspace is special-cased: ``gather`` returns the caller's
  vector unchanged (O(1), zero-copy — exactly the legacy full-width
  path) and ``scatter`` degenerates to a dense copy, so code threaded
  through a subspace with ``is_full`` behaves bit-identically to code
  that never heard of subspaces;
* :attr:`token` is a tiny hashable fingerprint (size + CRC-32 of the
  index bytes) for memo keys — e.g. the model-frame cache — without
  holding the index array itself in the key.

Mask *generation* is deterministic by construction: :meth:`sample`
draws from a caller-supplied ``np.random.Generator`` (in the engines,
always a :meth:`repro.sim.SimKernel.stream`), taking a proportional
slice of every parameter span in the layout so no layer is ever left
without coverage.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["ParamLayoutEntry", "ParamSubspace"]


class ParamLayoutEntry(tuple):
    """One ``(name, offset, size)`` span of the flat parameter buffer."""

    __slots__ = ()

    def __new__(cls, name: str, offset: int, size: int) -> "ParamLayoutEntry":
        return tuple.__new__(cls, (str(name), int(offset), int(size)))

    @property
    def name(self) -> str:
        return self[0]

    @property
    def offset(self) -> int:
        return self[1]

    @property
    def size(self) -> int:
        return self[2]


class ParamSubspace:
    """An ordered index set over a ``dim``-wide flat parameter vector."""

    __slots__ = ("dim", "indices", "_token", "_mask")

    def __init__(self, dim: int, indices: np.ndarray):
        if dim < 0:
            raise ValueError("dim must be non-negative")
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size:
            if int(idx.min()) < 0 or int(idx.max()) >= dim:
                raise ValueError("subspace index out of range for dim")
            if np.any(np.diff(idx) <= 0):
                # Canonicalise: sorted and duplicate-free, so equal
                # coordinate sets are equal objects on the wire.
                idx = np.unique(idx)
        self.dim = int(dim)
        self.indices = idx
        self.indices.setflags(write=False)
        self._token: tuple[int, int, int] | None = None
        self._mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, dim: int) -> "ParamSubspace":
        """The identity subspace: every coordinate of a ``dim`` vector."""
        return cls(dim, np.arange(dim, dtype=np.int64))

    @classmethod
    def from_indices(cls, dim: int, indices: "np.ndarray | list[int]") -> "ParamSubspace":
        """Subspace from an arbitrary (unsorted, possibly dup'd) index set."""
        return cls(dim, np.asarray(indices, dtype=np.int64))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "ParamSubspace":
        """Subspace from a boolean membership mask of length ``dim``."""
        mask = np.asarray(mask)
        if mask.ndim != 1 or mask.dtype != np.bool_:
            raise ValueError("mask must be a 1-D boolean array")
        return cls(mask.size, np.flatnonzero(mask).astype(np.int64))

    @classmethod
    def sample(
        cls,
        layout: "list[ParamLayoutEntry]",
        keep_frac: float,
        rng: np.random.Generator,
    ) -> "ParamSubspace":
        """Draw a random subspace keeping ``keep_frac`` of each span.

        Sampling is stratified over the parameter layout: every
        ``(name, offset, size)`` span keeps ``ceil(keep_frac * size)``
        uniformly chosen coordinates, so even aggressive ratios leave
        no layer untrained (the failure mode of global sampling, where
        a small bias vector can vanish entirely).  Determinism is the
        caller's job: pass a kernel stream, never a fresh default rng.
        """
        if not layout:
            raise ValueError("layout must be non-empty")
        if not 0.0 < keep_frac <= 1.0:
            raise ValueError("keep_frac must be in (0, 1]")
        dim = layout[-1].offset + layout[-1].size
        if keep_frac == 1.0:
            return cls.full(dim)
        takes = [
            min(max(1, int(np.ceil(keep_frac * entry.size))), entry.size)
            for entry in layout
        ]
        picked = np.empty(sum(takes), dtype=np.int64)
        pos = 0
        for entry, take in zip(layout, takes):
            local = rng.choice(entry.size, size=take, replace=False)
            picked[pos : pos + take] = np.asarray(local, dtype=np.int64) + entry.offset
            pos += take
        return cls(dim, picked)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of covered coordinates."""
        return int(self.indices.size)

    @property
    def is_full(self) -> bool:
        """Whether this subspace covers every coordinate."""
        return self.indices.size == self.dim

    @property
    def token(self) -> tuple[int, int, int]:
        """Hashable fingerprint ``(dim, size, crc32(indices))`` for memo keys."""
        if self._token is None:
            crc = zlib.crc32(np.ascontiguousarray(self.indices).tobytes())
            self._token = (self.dim, self.size, crc)
        return self._token

    def mask(self) -> np.ndarray:
        """Boolean membership mask of length ``dim`` (cached, read-only)."""
        if self._mask is None:
            mask = np.zeros(self.dim, dtype=np.bool_)
            mask[self.indices] = True
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def complement(self) -> "ParamSubspace":
        """The coordinates this subspace does *not* cover."""
        return ParamSubspace.from_mask(~self.mask())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamSubspace):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash(self.token)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParamSubspace(dim={self.dim}, size={self.size})"

    # ------------------------------------------------------------------
    # Gather / scatter
    # ------------------------------------------------------------------
    def gather(self, vector: np.ndarray) -> np.ndarray:
        """The covered coordinates of ``vector``, in index order.

        Full subspaces return ``vector`` itself — O(1) and aliasing,
        exactly the legacy full-width contract of
        :meth:`repro.nn.sequential.Sequential.get_flat_params`.
        Partial subspaces return a fresh gathered array.
        """
        if vector.ndim != 1 or vector.size != self.dim:
            raise ValueError(
                f"expected flat vector of size {self.dim}, got shape {vector.shape}"
            )
        if self.is_full:
            return vector
        return vector[self.indices]

    def scatter(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``values`` into ``out`` at the covered coordinates.

        ``out`` is mutated in place and returned; uncovered coordinates
        are left untouched (callers wanting a pure masked vector pass a
        zeroed ``out``).  Full subspaces degrade to a dense assignment.
        """
        values = np.asarray(values)
        if values.ndim != 1 or values.size != self.size:
            raise ValueError(
                f"expected {self.size} subspace values, got shape {values.shape}"
            )
        if out.ndim != 1 or out.size != self.dim:
            raise ValueError(
                f"expected flat output of size {self.dim}, got shape {out.shape}"
            )
        if self.is_full:
            out[...] = values
            return out
        # The scatter IS the operation here, not an accident.
        out[self.indices] = values
        return out

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Dense ``dim``-vector: ``values`` on the subspace, zero elsewhere."""
        out = np.zeros(self.dim, dtype=np.float64)
        return self.scatter(values, out)

    def restrict(self, vector: np.ndarray) -> np.ndarray:
        """Dense ``dim``-vector equal to ``vector`` on the subspace, zero off it.

        Full subspaces return ``vector`` unchanged (no copy).
        """
        if self.is_full:
            if vector.ndim != 1 or vector.size != self.dim:
                raise ValueError(
                    f"expected flat vector of size {self.dim}, got shape {vector.shape}"
                )
            return vector
        return self.expand(self.gather(vector))
