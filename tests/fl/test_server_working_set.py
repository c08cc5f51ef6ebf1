"""The server's working set: one scratch model, and g_hat only for AdaFL.

A process holds one scratch :class:`~repro.fl.replica.ModelReplica` per
architecture, and the server evaluates on it like the clients train on
it.  ``Server.global_delta`` (Eq. 6's g_hat) is state of the strategy
that scores against it: the engine switches recording on only for a
strategy with ``reads_global_delta`` (the two AdaFL variants).
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np

from repro.core.adafl import AdaFLAsync, AdaFLSync
from repro.experiments.presets import get_scale
from repro.experiments.runner import FederationSpec, build_federation, run_sync
from repro.experiments.scalability import SyntheticShardFactory
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.persist import run_result_to_dict
from repro.fl.population import ClientPopulation, RetentionPolicy
from repro.fl.server import Server
from repro.fl.snapshot import load_snapshot
from repro.fl.sync_engine import SyncEngine
from repro.fl.validation import ValidationConfig
from repro.network.conditions import NetworkConditions
from tests.fl.equiv_cases import _async_config, _federation, _sync_config
from tests.transport.inproc import mlp_spec


# -- one scratch model per architecture ---------------------------------
def test_built_federation_server_and_clients_share_one_replica():
    fed = build_federation(mlp_spec(num_clients=4))
    assert all(c.replica is fed.server.replica for c in fed.clients)
    # The server's own initial weights, not a view of the scratch.
    assert not np.shares_memory(fed.server.params, fed.server.replica.model.get_flat_params())


def test_resumed_federation_still_shares_one_replica(tmp_path):
    """A snapshot pickles the server and an always-live client list in
    one stream, so the shared replica comes back shared."""
    spec = mlp_spec(num_clients=4)
    spec = dataclasses.replace(spec, scale=dataclasses.replace(spec.scale, num_rounds=2))
    snap = tmp_path / "run.snapshot"
    run_sync(spec, FedAvg(participation_rate=1.0), snapshot_path=snap)
    engine = load_snapshot(snap, keep_snapshotting=False)
    replica = engine.server.replica
    assert all(engine.clients[cid].replica is replica for cid in range(4))


def test_resumed_virtual_population_still_shares_one_replica(tmp_path):
    """A virtual population snapshots its pool beside the server: the
    replica they share is pickled once, and the first client to
    re-materialise claims it although unpickling dropped its
    ``model_fn``."""
    server, pop = _federation(0, RetentionPolicy(mode="regenerate", max_live=2))
    server.adopt_replica(pop.replicas)
    snap = tmp_path / "run.snapshot"
    live = SyncEngine(  # snapshots after round 2 of 3
        server, pop, FedAvg(participation_rate=1.0), _sync_config(3),
        snapshot_path=snap, snapshot_every=2,
    ).run()
    assert pop[0].replica is server.replica
    engine = load_snapshot(snap, keep_snapshotting=False)
    server, clients = engine.server, engine.clients
    assert clients[0].replica is server.replica
    resumed = engine.resume()
    assert clients.replicas == [server.replica]
    assert all(clients[cid].replica is server.replica for cid in clients.live_ids())
    assert run_result_to_dict(resumed) == run_result_to_dict(live)


def test_virtual_population_clients_borrow_the_server_replica():
    factory = SyntheticShardFactory(num_clients=50, seed=0)
    population = ClientPopulation(
        num_clients=50, client_fn=factory,
        policy=RetentionPolicy(mode="regenerate", max_live=4),
    )
    server = Server(factory.model_fn, factory.test_set())
    server.adopt_replica(population.replicas)
    assert population.replicas == [server.replica]
    assert population[3].replica is population[41].replica is server.replica


# -- g_hat is recorded only for a strategy that reads it -----------------
def test_fedavg_and_fedasync_servers_keep_no_global_delta():
    server, clients = _federation(0)
    SyncEngine(server, clients, FedAvg(participation_rate=1.0), _sync_config(3)).run()
    assert server.version == 3 and server.global_delta is None

    server, clients = _federation(0)
    AsyncEngine(server, clients, FedAsync(), _async_config(8)).run()
    assert server.version > 0 and server.global_delta is None


def test_adafl_sync_global_delta_is_the_last_applied_delta(monkeypatch):
    server, clients = _federation(0)
    applied = []
    real = server.apply_delta

    def apply_delta(delta):
        applied.append(delta)
        real(delta)

    monkeypatch.setattr(server, "apply_delta", apply_delta)
    SyncEngine(server, clients, AdaFLSync(), _sync_config(4)).run()
    assert applied and server.global_delta is applied[-1]


def test_adafl_async_global_delta_is_the_last_movement(monkeypatch):
    server, clients = _federation(0)
    moves = []
    real = server.set_params

    def set_params(params, copy=True):
        moves.append(params - server.params)
        real(params, copy=copy)

    monkeypatch.setattr(server, "set_params", set_params)
    AsyncEngine(server, clients, AdaFLAsync(), _async_config(12)).run()
    assert moves and server.global_delta.tobytes() == moves[-1].tobytes()


# -- the traced heap of a FedAvg run -------------------------------------
def test_fedavg_server_working_set_on_the_wide_mlp():
    """Two validated FedAvg rounds of ``dense_wide_mlp``'s 397 510-parameter
    MLP, 20 clients.  In ``8 d`` units the round in flight holds the
    server vector (1), the one scratch replica's parameters and gradients
    (2), the fold's accumulator and its result (2) and a float32 model
    frame and upload frame (1); 1.2 more covers data, screens and
    bookkeeping (measured 6.67 in all).  A second model for the server
    adds 2 (measured 8.67), a kept last aggregate 1 (7.67)."""
    num_clients = 20
    scale = dataclasses.replace(
        get_scale("fast"), num_clients=num_clients, train_samples=8 * num_clients,
        batch_size=8, image_size=28, cnn_hidden=500, num_rounds=2,
    )
    spec = FederationSpec(
        dataset="mnist", model="mlp", distribution="shard", scale=scale, seed=0
    )
    network = NetworkConditions.with_stragglers(
        num_clients, straggler_fraction=0.2, good_preset="wifi",
        bad_preset="constrained", rng=np.random.default_rng(17),
    )
    d = 28 * 28 * 500 + 500 + 500 * 10 + 10
    tracemalloc.start()
    try:
        result = run_sync(
            spec, FedAvg(participation_rate=1.0), network=network,
            validation=ValidationConfig(),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 2 and result.total_uploads > num_clients
    assert peak <= (6 + 1.2) * 8 * d, f"peak {peak / (8 * d):.2f} x 8d"
