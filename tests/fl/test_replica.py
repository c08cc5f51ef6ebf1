"""Clients borrow a model: the shared scratch replica and its contract.

Four layers of guarantees:

* **the borrow** — clients of one population share one
  :class:`~repro.fl.replica.ModelReplica` per architecture, and
  building a client builds no model;
* **equivalence** — every strategy family, serial and fused, walks the
  same trajectory (final parameters, ``RunResult``, full JSONL trace)
  on the shared scratch as on the reference *private replica per
  client* federation of ``tests/fl/private_replica.py``;
* **size** — an engine snapshot of K clients carries one client-side
  model, not K, and still loads when ``model_fn`` is a lambda;
* **memory** — the traced peak of a wide-MLP run grows per client by
  its update in flight, not by parameter, gradient and momentum
  buffers.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.adafl import AdaFLAsync, AdaFLSync
from repro.core.zoo import AdaptiveFederatedDropout, AFDConfig
from repro.data.synthetic import make_image_classification
from repro.experiments.presets import get_scale
from repro.experiments.runner import (
    FederationSpec,
    _federation_config,
    build_federation,
    run_sync,
)
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAvg, FedBuff, FedProx, Scaffold
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.persist import run_result_to_dict
from repro.fl.population import ClientPopulation, RetentionPolicy
from repro.fl.server import Server
from repro.fl.snapshot import load_snapshot, save_snapshot
from repro.fl.sync_engine import SyncEngine
from repro.network.conditions import NetworkConditions
from repro.nn.models import build_mlp, build_mnist_cnn
from repro.sim import JsonlSink
from tests.fl.equiv_cases import NUM_CLIENTS, SHAPE, _jittery_net
from tests.fl.private_replica import PrivateReplicaClient

LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1, momentum=0.9)


def mlp_model():
    return build_mlp(SHAPE, num_classes=4, hidden=(12,), seed=99)


def cnn_model():
    """A second architecture, with conv workspaces in the scratch."""
    return build_mnist_cnn(SHAPE, num_classes=4, channels=(3, 4), hidden=8, seed=42)


def _data():
    return make_image_classification(
        n_train=80, n_test=40, num_classes=4, image_shape=SHAPE,
        noise_std=0.4, seed=7,
    )


@dataclasses.dataclass(frozen=True)
class _Factory:
    """Picklable ``client_fn`` over the same shards as the live list."""

    model_fn: object
    client_cls: type = Client

    def __call__(self, cid: int) -> Client:
        train, _ = _data()
        parts = np.array_split(np.arange(len(train)), NUM_CLIENTS)
        return self.client_cls(cid, train.subset(parts[cid]), self.model_fn, seed=50 + cid)


def _federation(model_fn, client_cls=Client, policy=None):
    factory = _Factory(model_fn, client_cls)
    server = Server(model_fn, _data()[1])
    if policy is not None:
        return server, ClientPopulation(
            num_clients=NUM_CLIENTS, client_fn=factory, policy=policy
        )
    return server, [factory(cid) for cid in range(NUM_CLIENTS)]


def _config(mode: str, rounds: int = 4) -> FederationConfig:
    if mode == "sync":
        return FederationConfig(
            num_rounds=rounds, participation_rate=1.0, eval_every=2, seed=3, local=LOCAL
        )
    return FederationConfig(
        num_rounds=10, participation_rate=1.0, eval_every=4, seed=3, local=LOCAL,
        max_sim_time_s=1e9, max_updates=3 * rounds,
    )


def _engine(mode, strategy, server, clients, fused, **kwargs):
    # No network: the sync cohort / async same-instant bursts go through
    # the fused kernel.  A (jittered) network forces the serial path.
    network = None if fused else _jittery_net()
    cls = SyncEngine if mode == "sync" else AsyncEngine
    return cls(server, clients, strategy, _config(mode), network=network, **kwargs)


def _outcome(engine) -> tuple:
    """Final parameters, the whole ``RunResult`` and the full trace."""
    out = io.StringIO()
    engine.trace.add_sink(JsonlSink(out))
    result = engine.run()
    return engine.server.params.copy(), run_result_to_dict(result), out.getvalue()


def _assert_same(actual: tuple, expected: tuple) -> None:
    assert actual[2] == expected[2]  # trace first: it names the first divergent event
    assert actual[1] == expected[1]
    assert np.array_equal(actual[0], expected[0])


# ---------------------------------------------------------------------------
# The borrow
# ---------------------------------------------------------------------------


class TestBorrow:
    def test_building_a_client_builds_no_model(self):
        calls = []

        def counting_model():
            calls.append(1)
            return mlp_model()

        _, clients = _federation(counting_model)
        calls.clear()  # the server's own model
        pop = ClientPopulation(clients)
        gp = pop[0].replica.model.get_flat_params().copy()
        for c in clients:
            c.local_train(gp, LOCAL)
        assert len(calls) == 1
        assert len({id(c.replica) for c in clients}) == 1

    def test_standalone_client_is_a_population_of_one(self):
        _, (a, b, *_) = _federation(mlp_model)
        assert a.replica is not b.replica
        replica = a.replica
        a.local_train(replica.model.get_flat_params().copy(), LOCAL)
        assert a.replica is replica  # built once, kept

    def test_virtual_population_builds_one_model_for_every_materialisation(self):
        calls = []

        def counting_model():
            calls.append(1)
            return mlp_model()

        pop = ClientPopulation(
            num_clients=NUM_CLIENTS, client_fn=_Factory(counting_model),
            policy=RetentionPolicy(mode="regenerate", max_live=1),
        )
        gp = mlp_model().get_flat_params().copy()
        calls.clear()
        for cid in range(NUM_CLIENTS):
            pop[cid].local_train(gp, LOCAL)
            pop.evict_to_cap()
        assert pop.stats.materializations == NUM_CLIENTS
        assert len(calls) == 1

    def test_distinct_architectures_get_distinct_replicas(self):
        _, clients = _federation(mlp_model)
        other = _Factory(cnn_model)(1)
        pop = ClientPopulation([clients[0], other])
        assert pop[0].replica is not pop[1].replica
        assert len(pop._replicas) == 2

    def test_shared_scratch_equals_private_replicas_call_by_call(self):
        """Interleaved train / probe / evaluate over one scratch model
        returns what each client would compute on a model of its own."""
        _, shared = _federation(cnn_model)
        _, private = _federation(cnn_model, PrivateReplicaClient)
        ClientPopulation(shared)
        test = _data()[1]
        gp = cnn_model().get_flat_params().copy()
        for rnd in range(3):
            deltas = []
            for s, p in zip(shared, private):
                us, up = s.local_train(gp, LOCAL, rnd), p.local_train(gp, LOCAL, rnd)
                assert np.array_equal(us.delta, up.delta)
                assert us.train_loss == up.train_loss
                deltas.append(us.delta)
            for s, p in zip(reversed(shared), reversed(private)):
                assert np.array_equal(s.probe_delta(gp, LOCAL), p.probe_delta(gp, LOCAL))
                assert s.evaluate(gp, test) == p.evaluate(gp, test)
            gp = gp + 0.5 * deltas[rnd]

    def test_accounting_counts_the_replica_once(self):
        _, clients = _federation(mlp_model)
        pop = ClientPopulation(clients)
        gp = pop[0].replica.model.get_flat_params().copy()
        for c in clients:
            c.local_train(gp, LOCAL)
        d = gp.size
        owned = sum(c.state_nbytes() for c in clients)
        # A client owns its shard: no model buffers, no copy of its delta.
        shard = clients[0].dataset.x.nbytes + clients[0].dataset.y.nbytes
        assert clients[0].state_nbytes() == shard
        # The scratch model: parameters + gradients + momentum, once.
        assert pop.live_nbytes() == owned + 3 * 8 * d


# ---------------------------------------------------------------------------
# Equivalence with the private-replica reference
# ---------------------------------------------------------------------------

STRATEGIES = {
    "fedavg": ("sync", lambda: FedAvg(participation_rate=1.0)),
    "fedprox": ("sync", lambda: FedProx(participation_rate=1.0, mu=0.05)),
    "scaffold": ("sync", lambda: Scaffold(participation_rate=1.0)),
    "afd": ("sync", lambda: AdaptiveFederatedDropout(AFDConfig(participation_rate=1.0))),
    "adafl_sync": ("sync", lambda: AdaFLSync()),
    "adafl_async": ("async", lambda: AdaFLAsync()),
    "fedbuff": ("async", lambda: FedBuff(buffer_size=2)),
}


@pytest.mark.parametrize("fused", [False, True], ids=["serial", "fused"])
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_shared_scratch_matches_private_replicas(name, fused):
    mode, strategy = STRATEGIES[name]

    def run(client_cls):
        server, clients = _federation(mlp_model, client_cls)
        return _outcome(_engine(mode, strategy(), server, clients, fused))

    _assert_same(run(Client), run(PrivateReplicaClient))


# ---------------------------------------------------------------------------
# Snapshot size
# ---------------------------------------------------------------------------


def _wide_spec(num_clients: int, momentum: float = 0.0) -> FederationSpec:
    scale = dataclasses.replace(
        get_scale("fast"), num_clients=num_clients, train_samples=8 * num_clients,
        batch_size=8, image_size=28, cnn_hidden=64, num_rounds=2,
    )
    return FederationSpec(
        dataset="mnist", model="mlp", distribution="shard", scale=scale, seed=0,
        momentum=momentum,
    )


def _snapshot_nbytes(num_clients: int) -> tuple[int, int, int]:
    """Pickled snapshot size; one pickled model; everything O(data)."""
    fed = build_federation(_wide_spec(num_clients))
    engine = SyncEngine(
        fed.server, fed.clients, FedAvg(participation_rate=1.0),
        _federation_config(fed.spec),
    )
    data = fed.test_set.x.nbytes + sum(c.dataset.x.nbytes for c in fed.clients)
    model = len(pickle.dumps(fed.model_fn()))
    return len(pickle.dumps(engine.snapshot_state())), model, data


def test_engine_snapshot_carries_one_client_side_model():
    small, model, small_data = _snapshot_nbytes(4)
    large, _, large_data = _snapshot_nbytes(16)
    # Twelve more clients add their shards and bookkeeping — nowhere
    # near twelve more models, as a replica per client did.
    assert large - small < (large_data - small_data) + model // 2
    # The server's model and vector plus one scratch replica: O(d)
    # whatever K is.
    assert large < large_data + 3 * model


def test_snapshot_with_lambda_model_fn_loads_and_resumes(tmp_path):
    spec = _wide_spec(4)
    reference = run_sync(spec, FedAvg(participation_rate=1.0))
    fed = build_federation(spec)
    assert fed.model_fn.__name__ == "<lambda>"  # not picklable by itself
    engine = SyncEngine(
        fed.server, fed.clients, FedAvg(participation_rate=1.0),
        _federation_config(spec),
    )
    next(iter(engine.iter_rounds()))
    snap = save_snapshot(engine, tmp_path / "run.snapshot")
    resumed = load_snapshot(snap, keep_snapshotting=False)
    assert run_result_to_dict(resumed.resume()) == run_result_to_dict(reference)


# ---------------------------------------------------------------------------
# Memory guard
# ---------------------------------------------------------------------------


def test_traced_peak_has_no_per_client_model_buffers():
    """20 clients, 2 rounds, a 397k-parameter MLP on the serial path.

    Per client the run may hold its update until aggregation (one
    ``8 d`` vector) — plus a constant for the round in flight
    (server model and vector, the scratch replica with its momentum,
    frames, the aggregate).  A private replica per client adds
    parameters, gradients and momentum: ``+3 * 8 d`` per client, which
    this bound does not admit (measured: 30 ``8 d`` units here, 87 with
    per-client replicas).
    """
    num_clients = 20
    scale = dataclasses.replace(
        get_scale("fast"), num_clients=num_clients, train_samples=8 * num_clients,
        batch_size=8, image_size=28, cnn_hidden=500, num_rounds=2,
    )
    spec = FederationSpec(
        dataset="mnist", model="mlp", distribution="shard", scale=scale, seed=0,
        momentum=0.9,
    )
    network = NetworkConditions.with_stragglers(
        num_clients, straggler_fraction=0.2, good_preset="wifi",
        bad_preset="constrained", rng=np.random.default_rng(17),
    )
    d = 28 * 28 * 500 + 500 + 500 * 10 + 10
    tracemalloc.start()
    try:
        run_sync(spec, FedAvg(participation_rate=1.0), network=network)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (12 + 1.25 * num_clients) * 8 * d
