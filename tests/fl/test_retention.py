"""Client state is kept only for the strategy that reads it.

``Client.last_delta`` — a float64 d-vector per client — is retained
only when the strategy declares ``reads_last_delta`` (async AdaFL,
whose halting score reads it).  Everywhere a client lives — in process,
in the fused glue, behind a socket (worker and ``RemoteClient``
mirror), in a population's retained or spilled state — a FedAvg run
leaves no d-vector behind, and a sync AdaFL run leaves nothing beyond
its DGC state.  The async AdaFL trajectory under crashes, which depends
on *when* the delta is retained, is pinned in ``trace_digests.json``
(``async_adafl_crash``).
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.compression.base import SparseDelta
from repro.core.adafl import AdaFLAsync, AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.data.synthetic import make_image_classification
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg, FedBuff
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.population import RetentionPolicy
from repro.fl.server import Server
from repro.fl.sync_engine import SyncEngine
from repro.network.conditions import ClientNetwork, NetworkConditions
from repro.network.link import LinkModel
from repro.nn.models import build_mlp
from repro.wire.frame import unseal
from tests.fl.equiv_cases import (
    NUM_CLIENTS,
    _async_config,
    _federation,
    _jittery_net,
    _sync_config,
)
from tests.transport.inproc import inproc_session, mlp_spec


def _d_vectors(state, d: int) -> list:
    """Every array of ``d`` elements reachable in a (nested) state."""
    if isinstance(state, np.ndarray):
        return [state] if state.size == d else []
    if isinstance(state, dict):
        state = list(state.values())
    if isinstance(state, (list, tuple)):
        return [a for item in state for a in _d_vectors(item, d)]
    return []


def _assert_client_holds_none(client, d: int) -> None:
    assert client.last_delta is None
    assert _d_vectors(client.extract_state(), d) == []


@pytest.mark.parametrize("fused", [False, True], ids=["serial", "fused"])
def test_fedavg_clients_hold_no_d_vector(fused):
    server, clients = _federation(10)
    network = None if fused else _jittery_net()
    engine = SyncEngine(
        server, clients, FedAvg(participation_rate=1.0), _sync_config(3), network=network
    )
    engine.run()
    assert bool(engine._batched_cache) == fused  # the path under test ran
    for c in clients:
        _assert_client_holds_none(c, server.dim)


@pytest.mark.parametrize("mode", ["spill", "regenerate"])
def test_fedavg_population_state_holds_no_d_vector(mode, tmp_path):
    policy = RetentionPolicy(mode=mode, max_live=2, spill_dir=tmp_path)
    server, pop = _federation(10, policy=policy)
    SyncEngine(server, pop, FedAvg(participation_rate=1.0), _sync_config(3)).run()
    assert pop.stats.evictions > 0
    for cid in list(pop.live_ids()):
        _assert_client_holds_none(pop[cid], server.dim)
    assert pop.retained_nbytes() == 0
    blobs = sorted(tmp_path.glob("client-*.blob"))
    assert bool(blobs) == (mode == "spill")
    for blob in blobs:
        state = pickle.loads(unseal(blob.read_bytes()))
        assert state["last_delta"] is None
        assert _d_vectors(state, server.dim) == []


@pytest.mark.transport
def test_fedavg_over_sockets_keeps_no_delta_on_either_side():
    num_clients = 3
    with inproc_session(mlp_spec(num_clients)) as (session, worker):
        session.run()
        d = session.federation.server.dim
        for cid in range(num_clients):
            assert session.engine.clients[cid].last_delta is None  # the mirror
            _assert_client_holds_none(worker._clients[cid], d)


def test_adafl_async_clients_keep_their_training_delta():
    server, clients = _federation(20)
    strategy = AdaFLAsync()
    assert strategy.reads_last_delta
    # Every client trains from the initial broadcast (warm-up).
    result = AsyncEngine(server, clients, strategy, _async_config(12)).run()
    assert result.total_uploads >= NUM_CLIENTS
    for c in clients:
        assert c.last_delta is not None and c.last_delta.shape == (server.dim,)


@pytest.mark.parametrize(
    "strategy_cls, reads", [(FedBuff, False), (FedAsync, True), (AdaFLAsync, True)]
)
def test_updates_carry_base_params_only_for_a_strategy_that_reads_them(
    strategy_cls, reads, monkeypatch
):
    """An in-flight update holds a copy of the params it trained from
    only where ``on_update`` mixes with them (FedAsync, async AdaFL)."""
    assert strategy_cls.reads_base_params is reads
    seen = []
    on_update = strategy_cls.on_update

    def spy(self, server, update, delta, staleness):
        seen.append("base_params" in update.extras)
        return on_update(self, server, update, delta, staleness)

    monkeypatch.setattr(strategy_cls, "on_update", spy)
    server, clients = _federation(20)
    AsyncEngine(server, clients, strategy_cls(), _async_config(6)).run()
    assert seen and set(seen) == {reads}


@pytest.mark.transport
def test_adafl_async_over_sockets_retains_on_the_mirror_only():
    num_clients = 3
    spec = mlp_spec(num_clients)
    config = AdaFLConfig(policy=AdaptiveCompressionPolicy(warmup_rounds=1))
    with inproc_session(
        spec, AdaFLAsync(config), mode="async", max_updates=6
    ) as (session, worker):
        session.run()
        d = session.federation.server.dim
        mirrors = [session.engine.clients[cid] for cid in range(num_clients)]
        assert all(m.last_delta is not None and m.last_delta.size == d for m in mirrors)
        for cid in range(num_clients):
            assert worker._clients[cid].last_delta is None


def _adafl_sync_engine(num_clients: int):
    """Sync AdaFL on an MLP wide enough (d = 29 804) that one d-vector
    dwarfs everything per client but DGC state; the warm-up round folds
    every client's upload at ratio 4, later rounds half the cohort."""
    shape = (1, 12, 12)

    def model_fn():
        return build_mlp(shape, num_classes=4, hidden=(200,), seed=1)

    train, test = make_image_classification(
        n_train=8 * num_clients, n_test=16, num_classes=4, image_shape=shape, seed=2
    )
    parts = np.array_split(np.arange(len(train)), num_clients)
    clients = [
        Client(i, train.subset(parts[i]), model_fn, seed=10 + i)
        for i in range(num_clients)
    ]
    server = Server(model_fn, test)
    link = LinkModel(bandwidth_mbps=10.0, latency_ms=5.0, jitter_ms=2.0)
    network = NetworkConditions(
        clients=[ClientNetwork(uplink=link, downlink=link) for _ in range(num_clients)]
    )
    policy = AdaptiveCompressionPolicy(warmup_rounds=1, warmup_ratio=4.0)
    strategy = AdaFLSync(AdaFLConfig(k_max=num_clients // 2, tau=0.0, policy=policy))
    config = FederationConfig(
        num_rounds=3, participation_rate=1.0, eval_every=10, seed=0,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
    )
    return SyncEngine(server, clients, strategy, config, network=network), clients


def test_adafl_sync_retains_nothing_per_client_beyond_dgc_state():
    """Traced heap a sync AdaFL run leaves behind, less what the DGC
    compressors own, is a constant number of d-vectors (the borrowed
    scratch replica, the shared magnitude scratch, the server's vectors)
    whatever the cohort size.  A delta cached per client adds one
    d-vector per client (measured: 3.6 units at 12 and at 24 clients;
    14.6 and 26.6 when every client kept its last delta)."""
    engine, clients = _adafl_sync_engine(12)
    tracemalloc.start()
    try:
        engine.run()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dgc = sum(c.compressor.state_nbytes() for c in clients)
    assert all(c.last_delta is None for c in clients)
    assert retained - dgc <= 6 * 8 * engine.server.dim


@pytest.mark.parametrize("num_clients", [12, 24])
def test_adafl_sync_aggregation_holds_payloads_not_d_vectors(num_clients, monkeypatch):
    """At every ``AdaFLSync.aggregate`` entry the traced heap, less DGC
    state and the delivered payloads' own bytes, is the same constant
    number of d-vectors at 12 and at 24 clients: a delivery costs its
    wire arrays (uint32 indices + float32 values), never a float64
    d-vector (measured: at most 3.6 units at both sizes; 14.6 and 26.6
    when every delivery was a dense float64 delta)."""
    engine, clients = _adafl_sync_engine(num_clients)
    units = []
    aggregate = AdaFLSync.aggregate

    def measured(self, server, updates, context):
        heap, _ = tracemalloc.get_traced_memory()
        dgc = sum(c.compressor.state_nbytes() for c in clients)
        assert all(isinstance(u.delta, SparseDelta) for u in updates)
        payloads = sum(u.delta.nbytes for u in updates)
        units.append((heap - dgc - payloads) / (8 * server.dim))
        return aggregate(self, server, updates, context)

    monkeypatch.setattr(AdaFLSync, "aggregate", measured)
    tracemalloc.start()
    try:
        engine.run()
    finally:
        tracemalloc.stop()
    assert len(units) == 3
    assert max(units) <= 6.0, units
