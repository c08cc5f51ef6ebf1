"""The scratch model replica that clients borrow.

``local_train`` overwrites the parameters from the broadcast on entry,
zeroes the gradient buffer before every batch and resets the optimiser
state every round, so a model replica carries nothing from one client
call to the next: it is scratch.  :class:`ModelReplica` is that scratch
— one ``Sequential``, its hoisted ``SGD`` and the loss, together with
the conv workspaces the layers grow — owned once per architecture by
whoever runs the clients, who keeps a pool of them that clients join
through ``Client.adopt_replica`` (a
:class:`~repro.fl.population.ClientPopulation`, a federation built by
``build_federation``; a standalone client makes a private one on first
use).  Clients *borrow* it for the duration of
``local_train`` / ``probe_delta`` / ``evaluate``.

An architecture is identified by its ``model_fn``: clients built from
equal callables share a replica.
"""

from __future__ import annotations

from typing import Callable

from repro.fl.config import LocalTrainingConfig
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.nn.sequential import Sequential

__all__ = ["ModelReplica"]


class ModelReplica:
    """Scratch model, hoisted optimiser and loss for one architecture."""

    def __init__(self, model_fn: Callable[[], Sequential]):
        self.model_fn = model_fn
        self.model = model_fn()
        self.loss_fn = SoftmaxCrossEntropy()
        self._optimizer: SGD | None = None

    def __getstate__(self) -> dict:
        # The optimiser wraps live views into the model's backing
        # buffers (pickling would detach them) and ``model_fn`` is often
        # a lambda; the built model is all an unpickled replica needs.
        state = self.__dict__.copy()
        state["_optimizer"] = None
        state["model_fn"] = None
        return state

    def optimizer(self, config: LocalTrainingConfig) -> SGD:
        """The hoisted SGD in fresh-build state for ``config``.

        The whole model is optimised as one flat parameter over the
        backing buffers — bit-identical to per-layer updates, minus the
        Python loop over layers.  The object (and its momentum buffer)
        is reused by every borrow; reconfiguring and zeroing its state
        in place matches a fresh build bit for bit.
        """
        optimizer = self._optimizer
        if optimizer is None:
            optimizer = self._optimizer = SGD(
                [self.model.flat_parameter()],
                lr=config.lr,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
            )
        else:
            optimizer.configure(
                config.lr, momentum=config.momentum, weight_decay=config.weight_decay
            )
            optimizer.reset_state()
        return optimizer

    def nbytes(self) -> int:
        """Flat parameter + gradient buffers, plus momentum once allocated."""
        d = self.model.num_params
        has_momentum = self._optimizer is not None and self._optimizer.momentum
        return (3 if has_momentum else 2) * 8 * d
