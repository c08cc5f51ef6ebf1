"""Reference ownership model: one private model replica per client.

Before clients borrowed a shared scratch :class:`~repro.fl.replica.ModelReplica`,
every ``Client`` built and kept its own ``Sequential`` — parameters,
gradients and hoisted optimiser.  :class:`PrivateReplicaClient` is that
ownership expressed on today's ``Client`` API, kept here as the oracle
the shared-scratch engines are compared against (the
``tests/nn/window_reference.py`` pattern): nothing one client does can
reach another's model, so any state the shared replica leaked between
borrowers shows up as a trajectory difference.
"""

from __future__ import annotations

from repro.fl.client import Client
from repro.fl.replica import ModelReplica


class PrivateReplicaClient(Client):
    """A client that owns its model outright and never shares it."""

    def __init__(self, client_id, dataset, model_fn, seed=0):
        super().__init__(client_id, dataset, model_fn, seed)
        self._replica = ModelReplica(model_fn)

    def adopt_replica(self, pool) -> None:
        """Stay private: a population's pool is ignored."""
