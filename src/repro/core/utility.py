"""Utility scores: Eq. 6 of the paper.

``S_i = f(B_i^down, B_i^up, U(g_i, g_hat))`` combines a gradient
similarity ``U`` between client ``i``'s local gradient and the
previous round's global gradient with the client's observable link
bandwidths.  The paper names cosine similarity as its choice of ``U``
(with L2-norm and Euclidean distance as alternatives) but leaves ``f``
unspecified; this implementation uses the convex combination

``S_i = w_sim * U_norm + w_bw * B_norm``

with ``U_norm`` the similarity mapped to [0, 1] and ``B_norm`` the
harmonic mean of uplink/downlink bandwidth normalised by a reference
rate and clipped to [0, 1].  The harmonic mean makes one dead
direction dominate (a client that cannot upload is useless no matter
how fast its downlink is).  The weights are exposed for the ablation
bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "cosine_similarity",
    "l2_similarity",
    "euclidean_similarity",
    "SIMILARITY_METRICS",
    "UtilityScorer",
]

_EPS = 1e-12


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two flat vectors, in [-1, 1].

    Zero vectors yield 0 (no directional information).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < _EPS or nb < _EPS:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def l2_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Similarity from the L2 norm of the difference, in (0, 1].

    ``1 / (1 + ||a - b|| / (||b|| + eps))`` — scale-aware, so a local
    gradient far from the global one scores low even if aligned.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ref = float(np.linalg.norm(b))
    dist = float(np.linalg.norm(a - b))
    return 1.0 / (1.0 + dist / (ref + _EPS))


def euclidean_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Similarity from raw Euclidean distance, in (0, 1]: ``1/(1+||a-b||)``."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return 1.0 / (1.0 + float(np.linalg.norm(a - b)))


SIMILARITY_METRICS = {
    "cosine": cosine_similarity,
    "l2": l2_similarity,
    "euclidean": euclidean_similarity,
}


@dataclass(frozen=True)
class UtilityScorer:
    """Computes Eq. 6 utility scores.

    Parameters
    ----------
    metric:
        One of ``cosine`` (paper's choice), ``l2``, ``euclidean``.
    sim_weight, bw_weight:
        Convex-combination weights; must sum to a positive value (they
        are renormalised internally).
    bw_reference_mbps:
        Bandwidth at (or above) which the bandwidth term saturates at 1.
    default_similarity:
        Similarity assumed for clients with no cached gradient yet
        (before their first participation); 1.0 prioritises unknown
        clients, matching the warm-up philosophy.
    """

    metric: str = "cosine"
    sim_weight: float = 0.7
    bw_weight: float = 0.3
    bw_reference_mbps: float = 20.0
    default_similarity: float = 1.0

    def __post_init__(self) -> None:
        if self.metric not in SIMILARITY_METRICS:
            known = ", ".join(sorted(SIMILARITY_METRICS))
            raise ValueError(f"unknown metric {self.metric!r}; known: {known}")
        if self.sim_weight < 0 or self.bw_weight < 0:
            raise ValueError("weights must be non-negative")
        if self.sim_weight + self.bw_weight <= 0:
            raise ValueError("at least one weight must be positive")
        if self.bw_reference_mbps <= 0:
            raise ValueError("bw_reference_mbps must be positive")
        if not 0.0 <= self.default_similarity <= 1.0:
            raise ValueError("default_similarity must be in [0, 1]")

    # ------------------------------------------------------------------
    def similarity(self, local_grad: np.ndarray | None, global_grad: np.ndarray | None) -> float:
        """Normalised similarity ``U`` in [0, 1]."""
        if local_grad is None or global_grad is None:
            return self.default_similarity
        raw = SIMILARITY_METRICS[self.metric](local_grad, global_grad)
        if self.metric == "cosine":
            return (raw + 1.0) / 2.0  # [-1, 1] -> [0, 1]
        return raw

    def bandwidth_term(self, bw_down_mbps: float, bw_up_mbps: float) -> float:
        """Normalised bandwidth term in [0, 1] (harmonic mean of links)."""
        if bw_down_mbps < 0 or bw_up_mbps < 0:
            raise ValueError("bandwidths must be non-negative")
        if bw_down_mbps == 0.0 or bw_up_mbps == 0.0:
            return 0.0
        harmonic = 2.0 / (1.0 / bw_down_mbps + 1.0 / bw_up_mbps)
        return float(min(1.0, harmonic / self.bw_reference_mbps))

    def score(
        self,
        bw_down_mbps: float,
        bw_up_mbps: float,
        local_grad: np.ndarray | None,
        global_grad: np.ndarray | None,
    ) -> float:
        """``S_i`` in [0, 1] — Eq. 6."""
        total = self.sim_weight + self.bw_weight
        sim = self.similarity(local_grad, global_grad)
        bw = self.bandwidth_term(bw_down_mbps, bw_up_mbps)
        return (self.sim_weight * sim + self.bw_weight * bw) / total
