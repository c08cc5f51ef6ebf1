"""Adaptive node selection — Algorithm 1 of the paper.

Given per-client utility scores, filter out clients below the
threshold ``tau``, rank the rest by score descending, and keep at most
``K``.  The returned set satisfies the algorithm's stated constraints:

* ``|selected| <= K``;
* every selected client has ``S_i >= tau``;
* no unselected client outscores a selected one.

:func:`select_from_scores` takes parallel ``ids``/``scores`` arrays
straight from the client registry's metadata and ranks them with
``np.argpartition``, so the cost is O(n + K log K), never a full
O(n log n) sort of the population; ties break deterministically by
ascending client id.

:func:`reservoir_sample` complements it for *uniform* choice: a
single-pass skip-ahead (Algorithm L) sample over an id stream in O(k)
memory, for samplers that must never materialise an O(population)
candidate list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

__all__ = [
    "SelectionResult",
    "select_from_scores",
    "reservoir_sample",
]

_EMPTY: tuple[int, ...] = ()
_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection pass."""

    selected: tuple[int, ...]
    filtered_out: tuple[int, ...]  # failed the tau threshold
    truncated: tuple[int, ...]  # passed tau but lost the top-K ranking

    @property
    def num_selected(self) -> int:
        return len(self.selected)


def select_from_scores(
    ids: np.ndarray,
    scores: np.ndarray,
    k: int,
    tau: float,
    track_rejected: bool = True,
) -> SelectionResult:
    """Run Algorithm 1 over parallel ``ids``/``scores`` arrays.

    Ties are broken by client id (ascending) so selection is
    deterministic; the selected tuple is ordered by descending score.
    The top-K cut uses ``argpartition`` plus an exact tie resolution at
    the K-th score, so results match a full ``(-score, id)`` sort bit
    for bit without ever sorting more than the selected set.

    ``track_rejected=False`` skips building the ``filtered_out`` /
    ``truncated`` tuples — at population scale those are O(n) Python
    objects that diagnostics-only callers never read.
    """
    if k < 1:
        raise ValueError("K must be at least 1")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if ids.shape != scores.shape or ids.ndim != 1:
        raise ValueError("ids and scores must be parallel 1-D arrays")

    pass_mask = scores >= tau  # NaN compares False: unscored never pass
    filtered_out = (
        tuple(int(i) for i in np.sort(ids[~pass_mask])) if track_rejected else _EMPTY
    )
    f_ids = ids[pass_mask]
    f_scores = scores[pass_mask]
    n = int(f_ids.size)
    k_prime = min(k, n)
    if k_prime == 0:
        return SelectionResult(_EMPTY, filtered_out, _EMPTY)

    if n > k_prime:
        # O(n) cut: the K-th ranked score, then exact (-score, id)
        # tie resolution at the boundary.
        part = np.argpartition(-f_scores, k_prime - 1)
        kth_score = f_scores[part[k_prime - 1]]
        strict_mask = f_scores > kth_score
        num_strict = int(np.count_nonzero(strict_mask))
        need = k_prime - num_strict
        tie_ids = f_ids[f_scores == kth_score]
        if need < tie_ids.size:
            tie_pick = np.partition(tie_ids, need - 1)[:need]
        else:
            tie_pick = tie_ids
        sel_ids = np.concatenate([f_ids[strict_mask], tie_pick])
        sel_scores = np.concatenate(
            [f_scores[strict_mask], np.full(tie_pick.size, kth_score)]
        )
    else:
        sel_ids = f_ids
        sel_scores = f_scores

    order = np.lexsort((sel_ids, -sel_scores))
    selected = tuple(int(i) for i in sel_ids[order])
    if track_rejected and n > k_prime:
        truncated_mask = ~np.isin(f_ids, sel_ids, assume_unique=False)
        truncated = tuple(int(i) for i in np.sort(f_ids[truncated_mask]))
    else:
        truncated = _EMPTY
    return SelectionResult(selected, filtered_out, truncated)


def reservoir_sample(
    ids: Iterable[int], k: int, rng: np.random.Generator
) -> list[int]:
    """Uniform ``k``-sample from an id stream in one pass, O(k) memory.

    Algorithm L (Li 1994): after the reservoir fills, the number of
    stream elements to skip before the next replacement is geometric,
    so the stream is advanced with ``islice`` instead of one RNG draw
    per element — O(k·(1 + log(n/k))) generator calls for a stream of
    ``n``.  The stream is still consumed exactly once and never
    materialised (unsized one-shot iterables work), so sampling a
    100k-client registry costs the same memory as sampling ten
    clients.  The result preserves reservoir order (not sorted);
    callers needing determinism across runs pass a seeded generator.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    stream = iter(ids)
    reservoir = [int(cid) for cid in islice(stream, k)]
    if len(reservoir) < k:
        return reservoir
    # Uniforms are taken as 1 - random(), in (0, 1], so every log is
    # finite; the clamp keeps log1p(-w) defined should w round to 1.
    w = min((1.0 - rng.random()) ** (1.0 / k), _BELOW_ONE)
    while True:
        skip = math.floor(math.log(1.0 - rng.random()) / math.log1p(-w))
        cid = next(islice(stream, skip, None), None)
        if cid is None:
            return reservoir
        reservoir[int(rng.integers(k))] = int(cid)
        w *= (1.0 - rng.random()) ** (1.0 / k)
