"""The FL server: global model state, evaluation, and the server step.

The server stores the global model as one flat vector (Eq. 1's ``w``)
plus the most recent aggregated *global delta* — the paper's ``g_hat``
(Eq. 6) that clients compare their local gradients against.
:class:`ServerOpt` is the one place a reduced client direction is
folded into that vector; a strategy chooses a reducer and an optimiser,
never the arithmetic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import AdamVector
from repro.nn.sequential import Sequential

__all__ = ["Server", "ServerOpt"]


class Server:
    """Holds and evaluates the global model."""

    def __init__(
        self,
        model_fn: Callable[[], Sequential],
        test_set: Dataset,
        eval_batch: int = 256,
    ):
        self._model = model_fn()
        self.test_set = test_set
        self.eval_batch = eval_batch
        # get_flat_params returns the model's live backing buffer;
        # the server's vector must be an independent snapshot.
        self.params = self._model.get_flat_params().copy()
        self.global_delta: np.ndarray | None = None  # g_hat of Eq. 6
        self.version = 0  # bumps on every global model change
        self._loss_fn = SoftmaxCrossEntropy()

    @property
    def dim(self) -> int:
        return self.params.size

    def param_layout(self) -> list:
        """Per-parameter ``(name, offset, size)`` spans of the flat vector.

        Delegates to the architecture replica, so strategies can build
        layer-stratified :class:`~repro.nn.subspace.ParamSubspace`
        masks without touching any client's private model.
        """
        return self._model.param_layout()

    def apply_delta(self, delta: np.ndarray) -> None:
        """Advance the global model by an aggregated delta.

        Updates ``params`` in place — no O(d) allocation per round, and
        the buffer identity is stable across versions (callers holding
        a view see every update; callers needing a frozen pre-update
        vector must copy it themselves, as the validated-rollback path
        in the sync engine does).
        """
        if delta.shape != self.params.shape:
            raise ValueError("delta shape does not match global model")
        self.params += delta
        self.global_delta = delta
        self.version += 1

    def set_params(
        self, params: np.ndarray, record_delta: bool = True, copy: bool = True
    ) -> None:
        """Replace the global model, optionally recording the movement.

        ``copy=False`` adopts the caller's array directly — for callers
        that just built a private vector (optimiser steps, rollbacks)
        and would otherwise pay a redundant O(d) copy.  The caller must
        not mutate the array afterwards.
        """
        if params.shape != self.params.shape:
            raise ValueError("params shape mismatch")
        if record_delta:
            self.global_delta = params - self.params
        self.params = params.copy() if copy else params
        self.version += 1

    def evaluate(self) -> tuple[float, float]:
        """(accuracy, mean loss) of the current global model on the test set."""
        self._model.set_flat_params(self.params)
        n = len(self.test_set)
        correct = 0
        losses: list[float] = []
        for start in range(0, n, self.eval_batch):
            xb = self.test_set.x[start : start + self.eval_batch]
            yb = self.test_set.y[start : start + self.eval_batch]
            logits = self._model.forward(xb, training=False)
            correct += int((np.argmax(logits, axis=-1) == yb).sum())
            losses.append(self._loss_fn.forward(logits, yb) * xb.shape[0])
        return correct / n, float(np.sum(losses) / n)


class ServerOpt:
    """The server step: fold one reduced direction into the global model.

    Server SGD — ``v = momentum * v + direction`` when there is
    momentum, then ``w += lr * v`` — covers FedAvg (``lr = 1``, no
    momentum), FedAvgM, SCAFFOLD, FedBuff and FedAT; with
    ``adam=(beta1, beta2, eps)`` the negated direction is the
    pseudo-gradient of an :class:`~repro.nn.optim.AdamVector` of step
    size ``lr`` instead (FedAdam).  Momentum and Adam keep O(d) state,
    allocated by :meth:`reset` (a strategy's ``prepare``).
    """

    def __init__(
        self,
        lr: float = 1.0,
        momentum: float = 0.0,
        adam: tuple[float, float, float] | None = None,
    ):
        if lr <= 0:
            raise ValueError("server lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("server momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.adam = adam
        self._state: np.ndarray | AdamVector | None = None

    def reset(self, dim: int) -> None:
        """Fresh optimiser state for a ``dim``-parameter model."""
        if self.adam is not None:
            beta1, beta2, eps = self.adam
            self._state = AdamVector(dim, lr=self.lr, beta1=beta1, beta2=beta2, eps=eps)
        elif self.momentum:
            self._state = np.zeros(dim, dtype=np.float64)

    def step(self, server: Server, direction: np.ndarray, *weights: float) -> None:
        """Advance ``server`` along ``direction``.

        ``weights`` scale this one step (FedAT's cross-tier weight):
        they are folded into ``lr`` left to right, scalars first, so
        the direction is multiplied once.
        """
        if self._state is None and (self.adam is not None or self.momentum):
            raise RuntimeError("ServerOpt.reset was not called (strategy.prepare)")
        if self.adam is not None:
            # AdamVector.step returns a fresh private vector, so the
            # server adopts it without the defensive copy.
            server.set_params(self._state.step(server.params, -direction), copy=False)
            return
        if self.momentum:
            self._state = direction = self.momentum * self._state + direction
        scale = self.lr
        for weight in weights:
            scale = scale * weight
        # ``1.0 * x`` is ``x`` bit for bit; skip the pass and the copy.
        server.apply_delta(direction if scale == 1.0 else scale * direction)
