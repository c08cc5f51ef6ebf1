"""Reference ownership model: one private model replica per client.

Before clients borrowed a shared scratch :class:`~repro.fl.replica.ModelReplica`,
every ``Client`` built and kept its own ``Sequential`` — parameters,
gradients, hoisted optimiser, and the per-layer runtime state (Dropout
RNGs, BatchNorm running statistics) living *inside that model's
layers*.  :class:`PrivateReplicaClient` is that ownership expressed on
today's ``Client`` API, kept here as the oracle the shared-scratch
engines are compared against (the ``tests/nn/window_reference.py``
pattern): nothing one client does can reach another's model, so any
state the shared replica leaked between borrowers shows up as a
trajectory difference.

The layer-state capture/restore below is the pre-change eviction code,
moved here verbatim.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.fl.replica import ModelReplica
from repro.nn.sequential import Sequential


def layer_runtime_state(model: Sequential) -> list[dict | None]:
    """Per-layer non-parameter state: dropout RNGs, batch-norm stats."""
    entries: list[dict | None] = []
    for layer in model.layers:
        entry: dict = {}
        rng = getattr(layer, "_rng", None)
        if isinstance(rng, np.random.Generator):
            entry["rng"] = rng.bit_generator.state
        mean = getattr(layer, "running_mean", None)
        if isinstance(mean, np.ndarray):
            entry["running_mean"] = mean.copy()
            entry["running_var"] = layer.running_var.copy()
        entries.append(entry or None)
    return entries


def restore_layer_runtime_state(model: Sequential, entries: list[dict | None]) -> None:
    if len(entries) != len(model.layers):
        raise ValueError("layer state does not match the model architecture")
    for layer, entry in zip(model.layers, entries):
        if not entry:
            continue
        if "rng" in entry:
            layer._rng.bit_generator.state = entry["rng"]
        if "running_mean" in entry:
            layer.running_mean[...] = entry["running_mean"]
            layer.running_var[...] = entry["running_var"]


class PrivateReplicaClient(Client):
    """A client that owns its model outright and never shares it."""

    def __init__(self, client_id, dataset, model_fn, seed=0):
        super().__init__(client_id, dataset, model_fn, seed)
        self._replica = ModelReplica(model_fn)

    def adopt_replica(self, pool) -> None:
        """Stay private: a population's pool is ignored."""

    def _borrow(self) -> ModelReplica:
        # Runtime state lives in the private model's own layers, so
        # there is nothing to install.
        return self._replica

    def runtime_state(self):
        """The private model's own layer objects (the fused kernel
        mutates them in place, as it mutated ``model.layers`` before)."""
        entries = []
        for layer in self._replica.model.layers:
            entry = {}
            if isinstance(getattr(layer, "_rng", None), np.random.Generator):
                entry["rng"] = layer._rng
            if isinstance(getattr(layer, "running_mean", None), np.ndarray):
                entry["running_mean"] = layer.running_mean
                entry["running_var"] = layer.running_var
            entries.append(entry or None)
        return entries if any(entries) else None

    def extract_state(self) -> dict:
        state = super().extract_state()
        state["layers"] = layer_runtime_state(self._replica.model)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state({**state, "layers": None})
        restore_layer_runtime_state(self._replica.model, state["layers"])
