"""FedAT — tier-based semi-asynchronous FL (Chai et al., SC'21).

Cited in the paper's related work as the protocol-level alternative to
AdaFL: clients are grouped into *tiers* by responsiveness, each tier
aggregates synchronously (a tier round completes when every member has
contributed once), and tier rounds land on the global model
asynchronously with weights that favour infrequently-updating tiers to
counter the fast-tier bias.

This implementation runs inside :class:`repro.fl.async_engine.AsyncEngine`:
per-client updates stream in; the strategy buffers them per tier and
flushes a tier round when the tier's membership is covered.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client, ClientUpdate
from repro.fl.server import Server, ServerOpt
from repro.fl.strategy import AsyncStrategy

__all__ = ["assign_tiers", "FedAT"]


def assign_tiers(response_times: np.ndarray, num_tiers: int) -> list[int]:
    """Group clients into tiers by expected response time.

    Returns a tier index per client; tier 0 is the fastest.  Clients
    are split into equal-size groups along the sorted response times
    (FedAT's profiling step).
    """
    response_times = np.asarray(response_times, dtype=np.float64)
    if response_times.ndim != 1 or response_times.size == 0:
        raise ValueError("response_times must be a non-empty 1-D array")
    if num_tiers < 1 or num_tiers > response_times.size:
        raise ValueError("num_tiers must be in [1, num_clients]")
    order = np.argsort(response_times, kind="stable")
    tiers = np.empty(response_times.size, dtype=np.int64)
    for tier, chunk in enumerate(np.array_split(order, num_tiers)):
        tiers[chunk] = tier
    return tiers.tolist()


class FedAT(AsyncStrategy):
    """Tiered asynchronous aggregation."""

    name = "fedat"

    def __init__(self, tiers: list[int], server_lr: float = 1.0):
        """``tiers[i]`` is the tier index of client ``i``."""
        if not tiers:
            raise ValueError("tiers must be non-empty")
        if min(tiers) < 0:
            raise ValueError("tier indices must be non-negative")
        self.tiers = list(tiers)
        self.num_tiers = max(tiers) + 1
        self.server_opt = ServerOpt(lr=server_lr)
        self._members: list[set[int]] = [
            {cid for cid, t in enumerate(tiers) if t == tier}
            for tier in range(self.num_tiers)
        ]
        if any(not members for members in self._members):
            raise ValueError("every tier must have at least one client")
        self._pending: list[dict[int, np.ndarray]] = [
            {} for _ in range(self.num_tiers)
        ]
        self._tier_rounds = np.zeros(self.num_tiers, dtype=np.int64)

    def prepare(self, server: Server, clients: list[Client]) -> None:
        if len(clients) != len(self.tiers):
            raise ValueError("tier assignment does not match client count")
        self._pending = [{} for _ in range(self.num_tiers)]
        self._tier_rounds = np.zeros(self.num_tiers, dtype=np.int64)

    def _tier_weight(self, tier: int) -> float:
        """Cross-tier weight: slower (less frequent) tiers count more.

        FedAT weights tier m by the update count of its mirror in the
        frequency ranking, normalising over all tiers; before any
        flush every tier weighs equally.
        """
        counts = self._tier_rounds.astype(np.float64) + 1.0
        order = np.argsort(counts, kind="stable")  # ascending frequency
        mirrored = np.empty_like(counts)
        mirrored[order] = counts[order[::-1]]
        return float(mirrored[tier] / mirrored.sum())

    def on_update(
        self,
        server: Server,
        update: ClientUpdate,
        delta: np.ndarray,
        staleness: int,
    ) -> bool:
        del staleness  # tier synchrony bounds staleness by construction
        cid = update.client_id
        tier = self.tiers[cid]
        self._pending[tier][cid] = delta
        if set(self._pending[tier]) != self._members[tier]:
            return False
        # Tier round complete: intra-tier FedAvg, cross-tier weighting.
        tier_delta = np.mean(
            list(self._pending[tier].values()), axis=0, dtype=np.float64
        )
        self.server_opt.step(server, tier_delta, self._tier_weight(tier), self.num_tiers)
        self._pending[tier] = {}
        self._tier_rounds[tier] += 1
        return True
