"""Baseline FL methods the paper compares against.

Synchronous: FedAvg (McMahan et al.), FedAdam (Reddi et al.), FedProx
(Li et al.), SCAFFOLD (Karimireddy et al.).  Asynchronous: FedAsync
(Xie et al.) and FedBuff (Nguyen et al.).  All follow the reference
algorithms at the aggregation level; clients run plain local SGD
except where the method dictates otherwise (FedProx's proximal term,
SCAFFOLD's control-variate correction).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.compression.base import densify
from repro.fl.client import Client, ClientUpdate
from repro.fl.config import LocalTrainingConfig
from repro.fl.server import Server, ServerOpt
from repro.fl.strategy import AsyncStrategy, RoundContext, SyncStrategy, UploadPacket

__all__ = [
    "FedAvg",
    "FedAvgM",
    "FedProx",
    "FedAdam",
    "Scaffold",
    "FedAsync",
    "FedBuff",
    "SYNC_BASELINES",
    "ASYNC_BASELINES",
]


class FedAvg(SyncStrategy):
    """Plain weighted averaging of client deltas."""

    name = "fedavg"


class FedProx(SyncStrategy):
    """FedAvg aggregation + client-side proximal term ``mu/2 ||w - w_g||^2``."""

    name = "fedprox"

    def __init__(self, participation_rate: float = 0.5, mu: float = 0.01):
        super().__init__(participation_rate)
        if mu <= 0:
            raise ValueError("FedProx requires mu > 0 (use FedAvg otherwise)")
        self.mu = mu

    def local_config(self, base: LocalTrainingConfig) -> LocalTrainingConfig:
        return replace(base, prox_mu=self.mu)


class FedAdam(SyncStrategy):
    """Server-side Adam over the negated average delta (Reddi et al. 2020)."""

    name = "fedadam"

    def __init__(
        self,
        participation_rate: float = 0.5,
        server_lr: float = 0.05,
        beta1: float = 0.9,
        beta2: float = 0.99,
        eps: float = 1e-3,
    ):
        super().__init__(
            participation_rate, ServerOpt(lr=server_lr, adam=(beta1, beta2, eps))
        )


class FedAvgM(SyncStrategy):
    """FedAvg with server momentum (Reddi et al. 2020's SGDm server).

    The server keeps a momentum buffer over the averaged client delta:
    ``v = beta * v + delta_avg``, ``w += server_lr * v``.
    """

    name = "fedavgm"

    def __init__(
        self,
        participation_rate: float = 0.5,
        server_lr: float = 1.0,
        beta: float = 0.9,
    ):
        super().__init__(participation_rate, ServerOpt(lr=server_lr, momentum=beta))


def _mean_delta(updates: list[ClientUpdate]) -> np.ndarray:
    """Unweighted mean of the deltas (SCAFFOLD's server rule), summed
    in float64 over the wire-width (float32) deltas."""
    return np.mean([u.delta for u in updates], axis=0, dtype=np.float64)


class Scaffold(SyncStrategy):
    """SCAFFOLD with option-II control variates.

    The server keeps a global control variate ``c``; each client keeps
    ``c_i`` (attached lazily by :meth:`client_train_kwargs` via
    ``Client.control_variate``).  Wire cost doubles in both directions
    because control variates travel with the model/update — reflected
    in :meth:`process_upload` and :meth:`downlink_bytes`.
    """

    name = "scaffold"
    reducer = staticmethod(_mean_delta)

    def __init__(self, participation_rate: float = 0.5, server_lr: float = 1.0):
        super().__init__(participation_rate, ServerOpt(lr=server_lr))
        self._control: np.ndarray | None = None
        self._num_clients = 0

    def prepare(self, server: Server, clients: list[Client]) -> None:
        self._control = np.zeros(server.dim, dtype=np.float64)
        self._num_clients = len(clients)

    def client_train_kwargs(self, client: Client) -> dict:
        if self._control is None:
            raise RuntimeError("Scaffold.prepare was not called")
        return {"server_control": self._control}

    def process_upload(
        self, client: Client, update: ClientUpdate, context: RoundContext
    ) -> UploadPacket:
        packet = super().process_upload(client, update, context)
        # The control-variate delta rides the same upload as a second
        # dense payload outside the model-delta frame.
        packet.extra_bytes += packet.frame.payload_nbytes
        return packet

    def downlink_bytes(self, server: Server) -> int:
        return 2 * super().downlink_bytes(server)  # model + server control

    def aggregate(
        self, server: Server, updates: list[ClientUpdate], context: RoundContext
    ) -> None:
        if not updates:
            return
        if self._control is None:
            raise RuntimeError("Scaffold.prepare was not called")
        super().aggregate(server, updates, context)
        control_deltas = [
            u.extras["control_delta"] for u in updates if "control_delta" in u.extras
        ]
        if control_deltas:
            self._control += (len(control_deltas) / self._num_clients) * np.mean(
                control_deltas, axis=0
            )


class FedAsync(AsyncStrategy):
    """Fully asynchronous aggregation with polynomial staleness weighting.

    On receiving a client model trained from version ``v`` while the
    server is at version ``V``, mixes with weight
    ``alpha * (1 + V - v)^{-poly_a}`` (Xie et al. 2019).
    """

    name = "fedasync"
    # The mix rebuilds the client model from the params it trained on.
    reads_base_params = True

    def __init__(self, alpha: float = 0.6, poly_a: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if poly_a < 0:
            raise ValueError("poly_a must be non-negative")
        self.alpha = alpha
        self.poly_a = poly_a

    def effective_alpha(self, staleness: int) -> float:
        """Mixing weight after staleness discounting."""
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        return self.alpha * (1.0 + staleness) ** (-self.poly_a)

    def on_update(
        self,
        server: Server,
        update: ClientUpdate,
        delta: np.ndarray,
        staleness: int,
    ) -> bool:
        alpha = self.effective_alpha(staleness)
        base_params = update.extras["base_params"]
        client_model = base_params + densify(delta)
        server.set_params(
            (1.0 - alpha) * server.params + alpha * client_model, copy=False
        )
        return True


class FedBuff(AsyncStrategy):
    """Buffered asynchronous aggregation (Nguyen et al. 2022).

    Deltas accumulate (staleness-discounted) in a size-``buffer_size``
    buffer; when full, their mean is applied with ``server_lr`` and the
    buffer clears.
    """

    name = "fedbuff"

    def __init__(self, buffer_size: int = 3, server_lr: float = 1.0, poly_a: float = 0.5):
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        self.buffer_size = buffer_size
        self.server_opt = ServerOpt(lr=server_lr)
        self.poly_a = poly_a
        self._buffer: list[np.ndarray] = []

    def prepare(self, server: Server, clients: list[Client]) -> None:
        self._buffer = []

    def on_update(
        self,
        server: Server,
        update: ClientUpdate,
        delta: np.ndarray,
        staleness: int,
    ) -> bool:
        discount = (1.0 + max(staleness, 0)) ** (-self.poly_a)
        # A float32 delta times a Python float stays float32 (NEP 50):
        # buffer the float64 product, so the mean below is float64 too.
        self._buffer.append(np.multiply(delta, discount, dtype=np.float64))
        if len(self._buffer) < self.buffer_size:
            return False
        direction = np.mean(self._buffer, axis=0)
        self._buffer = []
        self.server_opt.step(server, direction)
        return True


SYNC_BASELINES = {
    cls.name: cls for cls in (FedAvg, FedAvgM, FedProx, FedAdam, Scaffold)
}
ASYNC_BASELINES = {cls.name: cls for cls in (FedAsync, FedBuff)}
