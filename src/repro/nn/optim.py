"""Optimisers operating on :class:`repro.nn.layers.Parameter` lists.

``SGD`` (optionally with momentum and weight decay) is the client-side
optimiser used throughout the paper; :class:`AdamVector` is Adam over
one flat vector, the server-side optimiser of FedAdam.
"""

from __future__ import annotations

import numpy as np

from repro.blocks import row_blocks
from repro.nn.layers import Parameter

__all__ = ["Optimizer", "SGD", "AdamVector"]


class Optimizer:
    """Base optimiser over a fixed parameter list."""

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        self.params = list(params)
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in params] if momentum else None
        # One scratch per block shape, reused by every step; what it
        # holds is dead once ``step`` returns.
        self._scratch: dict[tuple[int, ...], np.ndarray] = {}

    def configure(
        self, lr: float, momentum: float = 0.0, weight_decay: float = 0.0
    ) -> None:
        """Re-point a reused optimiser at new hyperparameters.

        Keeps the velocity buffers allocated when momentum stays
        enabled (callers reuse one SGD across training rounds instead
        of rebuilding it, see ``Client.local_train``); allocates them
        on a 0 -> m transition and drops them on m -> 0.
        """
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.weight_decay = weight_decay
        if momentum and self._velocity is None:
            self._velocity = [np.zeros_like(p.data) for p in self.params]
        elif not momentum:
            self._velocity = None
        self.momentum = momentum

    def reset_state(self) -> None:
        """Zero the momentum buffers in place (fresh-optimiser state)."""
        if self._velocity is not None:
            for v in self._velocity:
                v.fill(0.0)

    def step(self) -> None:
        scratches = self._scratch
        for i, p in enumerate(self.params):
            for rows in row_blocks(p.data):
                block, grad = p.data[rows], p.grad[rows]
                scratch = scratches.get(block.shape)
                if scratch is None:
                    # reprolint: allow[R403] dict memo insert, not an ndarray scatter
                    scratch = scratches[block.shape] = np.empty_like(block)
                if self.weight_decay:
                    np.multiply(block, self.weight_decay, out=scratch)
                    scratch += grad
                    grad = scratch
                if self._velocity is not None:
                    v = self._velocity[i][rows]
                    v *= self.momentum
                    v += grad
                    grad = v
                block -= np.multiply(grad, self.lr, out=scratch)


class AdamVector:
    """Adam over a single flat vector (server-side optimiser for FedAdam).

    FedAdam (Reddi et al., 2020) treats the negated average client delta
    as a pseudo-gradient and applies Adam on the server.  The server
    stores the global model as one flat vector, so this variant avoids
    round-tripping through ``Parameter`` objects.
    """

    def __init__(
        self,
        dim: int,
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.99,
        eps: float = 1e-3,
    ):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = np.zeros(dim, dtype=np.float64)
        self._v = np.zeros(dim, dtype=np.float64)
        self._t = 0

    def step(self, params: np.ndarray, pseudo_grad: np.ndarray) -> np.ndarray:
        """Return updated parameters given a pseudo-gradient."""
        if params.shape != self._m.shape or pseudo_grad.shape != self._m.shape:
            raise ValueError("shape mismatch with optimiser state")
        self._t += 1
        # In-place moment updates (same evaluation order as the
        # rebinding form, so results stay bit-identical) avoid two
        # O(d) allocations per server step.
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * pseudo_grad
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * pseudo_grad**2
        m_hat = self._m / (1.0 - self.beta1**self._t)
        v_hat = self._v / (1.0 - self.beta2**self._t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
