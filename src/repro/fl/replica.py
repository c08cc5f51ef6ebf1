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

What is not scratch is the per-layer **runtime state** — a Dropout
layer's RNG, BatchNorm's running statistics.  Each client owns its own
as live objects (a ``Generator``, two arrays per layer) which a borrow
points the replica's layers at, so training mutates the client's state
in place and nothing has to be lifted back out.  An architecture with
no such layer (every zoo model) skips the step outright.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Callable

import numpy as np

from repro.fl.config import LocalTrainingConfig
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.nn.sequential import Sequential

__all__ = ["ModelReplica", "export_runtime", "import_runtime"]

# Runtime-state entry key -> the layer attribute it is installed as.
_LAYER_ATTR = {"rng": "_rng", "running_mean": "running_mean", "running_var": "running_var"}


def _live_entry(layer) -> dict | None:
    """The layer's runtime-state objects themselves, None if it has none."""
    entry: dict = {}
    rng = getattr(layer, "_rng", None)
    if isinstance(rng, np.random.Generator):
        entry["rng"] = rng
    mean = getattr(layer, "running_mean", None)
    if isinstance(mean, np.ndarray):
        entry["running_mean"] = mean
        entry["running_var"] = layer.running_var
    return entry or None


class ModelReplica:
    """Scratch model, hoisted optimiser and loss for one architecture."""

    def __init__(self, model_fn: Callable[[], Sequential]):
        self.model_fn = model_fn
        self.model = model_fn()
        self.loss_fn = SoftmaxCrossEntropy()
        self._optimizer: SGD | None = None
        # Runtime state of a freshly built model: what a client that
        # has never trained starts from.  Copied out, so no borrow can
        # touch it.
        entries = [_live_entry(layer) for layer in self.model.layers]
        # Whether any layer carries per-client runtime state: a plain
        # attribute, read on every borrow.
        self.stateful = any(entries)
        self._pristine = deepcopy(entries) if self.stateful else None

    def __getstate__(self) -> dict:
        # The optimiser wraps live views into the model's backing
        # buffers (pickling would detach them) and ``model_fn`` is often
        # a lambda; the built model is all an unpickled replica needs.
        state = self.__dict__.copy()
        state["_optimizer"] = None
        state["model_fn"] = None
        return state

    def fresh_runtime(self) -> list[dict | None] | None:
        """Runtime state for a client that has not trained yet."""
        return deepcopy(self._pristine)

    def install(self, runtime: list[dict | None]) -> None:
        """Point the layers at one client's runtime-state objects."""
        layers = self.model.layers
        if len(runtime) != len(layers):
            raise ValueError("layer state does not match the model architecture")
        for layer, entry in zip(layers, runtime):
            if entry:
                for key, value in entry.items():
                    setattr(layer, _LAYER_ATTR[key], value)

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


def export_runtime(runtime: list[dict | None] | None) -> list[dict | None] | None:
    """A picklable, detached capture of live runtime state.

    Eviction-time work, not per-step: the capture must own its arrays
    so later training cannot mutate it.
    """
    if runtime is None:
        return None
    saved: list[dict | None] = []
    for entry in runtime:
        if not entry:
            saved.append(None)
            continue
        out: dict = {}
        if "rng" in entry:
            out["rng"] = entry["rng"].bit_generator.state
        if "running_mean" in entry:
            out["running_mean"] = entry["running_mean"].copy()
            out["running_var"] = entry["running_var"].copy()
        saved.append(out)
    return saved


def import_runtime(saved: list[dict | None] | None) -> list[dict | None] | None:
    """Live runtime state rebuilt from :func:`export_runtime` output."""
    if not saved or not any(saved):
        return None
    runtime: list[dict | None] = []
    for entry in saved:
        if not entry:
            runtime.append(None)
            continue
        live: dict = {}
        if "rng" in entry:
            bit_generator = getattr(np.random, entry["rng"]["bit_generator"])()
            bit_generator.state = entry["rng"]
            live["rng"] = np.random.Generator(bit_generator)
        if "running_mean" in entry:
            live["running_mean"] = entry["running_mean"].copy()
            live["running_var"] = entry["running_var"].copy()
        runtime.append(live)
    return runtime
