"""Server-side update validation and robust aggregation guards.

The server historically trusted every delivered payload bit-for-bit;
one NaN-poisoned upload therefore poisons the global model forever
(NaN propagates through every weighted average).  This module screens
updates before they reach the model:

* **frame integrity** — every upload travels as a
  :class:`repro.wire.frame.Frame` whose header carries a CRC-32 of the
  payload; :func:`verify_frame` turns a failed parse into the
  ``"corrupt_frame"`` rejection (the detector for in-flight bit
  corruption, which no numeric screen can see reliably);
* **non-finite screening** — a single ``np.sum`` pass is a sound
  detector (any NaN/Inf coordinate makes the sum non-finite);
* **L2-norm screening** — rejects norm blow-ups above ``max_norm``;
* **duplicate rejection** — engines stamp every produced update with a
  monotone ``upload_serial`` (in ``ClientUpdate.extras``); a serial
  seen twice is a replay.  Serial-based, not (client, version)-based,
  because buffered-async strategies legitimately accept two uploads
  trained from the same base version;
* **staleness gating** — asynchronous updates older than
  ``max_staleness`` server versions are refused;
* **trimmed-mean fallback** — when at least one update was rejected in
  a synchronous round, the remaining deltas can be folded with a
  coordinate-wise trimmed mean instead of the strategy's aggregator,
  bounding the influence of any corruption the screens missed.

Cost model (see ``benchmarks/bench_hotpath.py``, section
``resilience``): the O(d) screens run *per update* only in
``prescreen`` mode (or when ``max_norm`` is set, which needs per-update
norms).  The default is deferred screening — the engine aggregates
optimistically, screens the single aggregate once, and only on a hit
walks back to find the culprits, rolls the server back, and
re-aggregates the survivors.  One O(d) pass per round amortises over
the fleet, keeping validation under the 5% aggregation-overhead
budget.  The rollback path re-runs aggregation, so strategies whose
``aggregate`` has side effects (server momentum, Adam moments) may
advance that internal state twice in rounds where corruption actually
fired; use ``prescreen=True`` (or the trimmed-mean fallback) when
studying corruption under such strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.blocks import row_blocks
from repro.compression.base import SparseDelta, densify
from repro.wire.frame import FrameError
from repro.wire.frame import Frame as _Frame

__all__ = ["ValidationConfig", "UpdateValidator", "trimmed_mean", "verify_frame"]


def verify_frame(
    frame_bytes: bytes, max_payload_nbytes: int | None = None
) -> str | None:
    """``"corrupt_frame"`` if the buffer fails frame validation.

    Parses the wire frame and checks the header CRC-32 against the
    payload; any malformation — bad magic, truncated payload, a
    declared length above ``max_payload_nbytes``, CRC mismatch from a
    flipped bit — yields the rejection reason.  Unlike the numeric
    screens this runs unconditionally: a damaged frame is never
    decodable, whatever the validation config says.
    """
    try:
        _Frame.from_bytes(frame_bytes, max_payload_nbytes=max_payload_nbytes)
    except FrameError:
        return "corrupt_frame"
    return None


@dataclass(frozen=True)
class ValidationConfig:
    """What the server refuses, and how it recovers."""

    forbid_nonfinite: bool = True
    max_norm: float | None = None
    reject_duplicates: bool = True
    max_staleness: int | None = None
    prescreen: bool = False
    trimmed_mean_fallback: bool = False
    trim_ratio: float = 0.2

    def __post_init__(self) -> None:
        if self.max_norm is not None and self.max_norm <= 0:
            raise ValueError("max_norm must be positive or None")
        if self.max_staleness is not None and self.max_staleness < 0:
            raise ValueError("max_staleness must be non-negative or None")
        if not 0.0 <= self.trim_ratio < 0.5:
            raise ValueError("trim_ratio must be in [0, 0.5)")

    @property
    def per_update_screen(self) -> bool:
        """Whether O(d) screens must run per update (vs once per round)."""
        return self.prescreen or self.max_norm is not None


def trimmed_mean(
    deltas: list[np.ndarray | SparseDelta], trim_ratio: float = 0.2
) -> np.ndarray:
    """Coordinate-wise trimmed mean of client deltas.

    Discards the ``floor(trim_ratio * n)`` smallest and largest values
    per coordinate before averaging — the classic robust aggregator.
    Sparse deltas are densified: every coordinate takes part.  The
    partition runs at the deltas' own width (order is exact in float32)
    and the mean sums in float64.
    NaN partitions to the top, so poisoned coordinates fall inside the
    trimmed tail whenever the number of corrupted updates is at most
    the trim count.

    Implementation: a multi-``kth`` :func:`np.partition` pins every
    position in ``[k, n - k)`` to exactly the value a full sort would
    put there — O(n) per coordinate instead of O(n log n), and the
    surviving slice (hence the mean) is bit-identical to the previous
    full-sort implementation.
    """
    if not deltas:
        raise ValueError("cannot trim-average zero deltas")
    if not 0.0 <= trim_ratio < 0.5:
        raise ValueError("trim_ratio must be in [0, 0.5)")
    stack = np.stack([densify(d) for d in deltas])
    n = stack.shape[0]
    k = int(math.floor(trim_ratio * n))
    if 2 * k >= n:
        k = (n - 1) // 2
    if k == 0:
        return stack.mean(axis=0, dtype=np.float64)
    stack.partition(np.arange(k, n - k, dtype=np.intp), axis=0)
    return stack[k : n - k].mean(axis=0, dtype=np.float64)


def _sq_norm(x: np.ndarray) -> float:
    """``x @ x`` in float64, one cache block at a time: a float32 ``x``
    is widened a block at a time, never copied whole."""
    return sum(
        float(np.dot(b, b))
        for b in (x[rows].astype(np.float64, copy=False) for rows in row_blocks(x))
    )


class UpdateValidator:
    """Stateful screening pipeline attached to an engine.

    Owns the monotone upload-serial counter and the set of serials the
    server has already accepted or refused, so duplicates are caught
    across rounds.  Screening verdicts are returned as trace drop
    reasons (``"corrupt"`` / ``"stale"``) or None for a clean update.
    """

    def __init__(self, config: ValidationConfig):
        self.config = config
        self._next_serial = 0
        self._seen: set[int] = set()

    # -- serial stamping ----------------------------------------------
    def stamp(self, update) -> None:
        """Assign the next upload serial to a freshly produced update."""
        update.extras["upload_serial"] = self._next_serial
        self._next_serial += 1

    # -- O(1) checks ---------------------------------------------------
    def check_replay(self, update) -> str | None:
        """``"stale"`` if this exact upload was already processed."""
        if not self.config.reject_duplicates:
            return None
        serial = update.extras.get("upload_serial")
        if serial is None:
            return None
        if serial in self._seen:
            return "stale"
        self._seen.add(serial)
        return None

    def check_staleness(self, staleness: int) -> str | None:
        """``"stale"`` if the update exceeds the staleness bound."""
        limit = self.config.max_staleness
        if limit is not None and staleness > limit:
            return "stale"
        return None

    # -- O(d) screens --------------------------------------------------
    def screen(self, delta: np.ndarray | SparseDelta) -> str | None:
        """``"corrupt"`` if the vector is non-finite or over-norm.

        A :class:`~repro.compression.base.SparseDelta` is screened on its
        ``values`` alone (the zeros off its support change neither
        verdict).  Both reductions run in float64 over the delta's own
        width: no sum of at most 2**32 float32-ranged terms overflows
        it, so a finite float32 delta is never ``"corrupt"`` for being
        large, and the verdict is its float64 copy's.
        """
        values = delta.values if isinstance(delta, SparseDelta) else delta
        if self.config.forbid_nonfinite:
            # One reduction pass: any NaN/Inf coordinate makes the sum
            # non-finite (opposite infinities yield NaN), and a finite
            # sum can never arise from non-finite inputs.
            if not math.isfinite(float(np.sum(values, dtype=np.float64))):
                return "corrupt"
        if self.config.max_norm is not None:
            sq = _sq_norm(values)
            if not math.isfinite(sq) or sq > self.config.max_norm**2:
                return "corrupt"
        return None

    def screen_aggregate(self, params: np.ndarray) -> bool:
        """Did aggregation let corruption through?  (Deferred mode.)

        Only the non-finite screen applies to an aggregate — a sum of
        clean deltas may legitimately exceed any per-update norm bound.
        """
        if not self.config.forbid_nonfinite:
            return False
        return not math.isfinite(float(np.sum(params)))
