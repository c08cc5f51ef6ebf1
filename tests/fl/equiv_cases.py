"""Shared pre-/post-refactor equivalence scenarios.

Each case builds a small federation from scratch (fully deterministic
given its literal seeds) and runs it through the public engine API.
Running ``python -m tests.fl.equiv_cases`` serialises every case's
per-record trajectory to ``data/equivalence_baseline.json``; the
committed baseline was generated against the pre-``repro.sim`` engines,
so ``test_engine_equivalence.py`` proves the kernel refactor left
accuracy/bytes/sim-time trajectories bit-identical. Every case accepts
an optional ``trace=`` so the trace-level tests can record the exact
runs the baseline pins.  ``sync_adafl`` alone was re-pinned since, in
the commit that made DGC's momentum and residual float32: its losses
moved in the ninth digit, every other field is unchanged.

Cases deliberately avoid lossy *downlinks* in the async runs: lost
model broadcasts are the one behaviour the refactor intentionally
changed (per-attempt byte charging + re-rolled retries).

Every case also accepts an optional ``policy=`` (a
:class:`~repro.fl.population.RetentionPolicy`): ``None`` keeps the
historical always-live ``list[Client]`` construction, while a spill or
regenerate policy rebuilds the *same* federation as a virtual
:class:`~repro.fl.population.ClientPopulation` whose clients are
materialised from seed on demand and evicted under LRU pressure.  The
eviction-determinism suite runs all six cases under all three policies
against the one committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.adafl import AdaFLSync
from repro.data.synthetic import make_image_classification
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg, FedBuff
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.metrics import RunResult
from repro.fl.population import ClientPopulation, RetentionPolicy
from repro.fl.server import Server
from repro.fl.sync_engine import SyncEngine
from repro.network.conditions import ClientNetwork, NetworkConditions
from repro.network.link import LinkModel
from repro.nn.models import build_mlp
from repro.sim import FaultPlan, UploadLossModel

BASELINE_PATH = Path(__file__).parent / "data" / "equivalence_baseline.json"

NUM_CLIENTS = 5
SHAPE = (1, 6, 6)


def _model_fn():
    return build_mlp(SHAPE, num_classes=4, hidden=(12,), seed=99)


class _ClientFactory:
    """Picklable ``client_fn``: rebuild client ``cid`` from literal seeds.

    Everything is deterministic per call (the dataset seed and the
    model seed are fixed), so a re-materialised client is bit-identical
    to the eagerly built one — the property the eviction-determinism
    suite pins.
    """

    def __init__(self, seed_base: int):
        self.seed_base = seed_base

    def __call__(self, cid: int) -> Client:
        train, _ = make_image_classification(
            n_train=80, n_test=40, num_classes=4, image_shape=SHAPE,
            noise_std=0.4, seed=7,
        )
        parts = np.array_split(np.arange(len(train)), NUM_CLIENTS)
        return Client(cid, train.subset(parts[cid]), _model_fn,
                      seed=self.seed_base + cid)


def _federation(seed_base: int, policy: RetentionPolicy | None = None):
    train, test = make_image_classification(
        n_train=80, n_test=40, num_classes=4, image_shape=SHAPE,
        noise_std=0.4, seed=7,
    )
    server = Server(_model_fn, test)
    if policy is not None:
        return server, ClientPopulation(
            num_clients=NUM_CLIENTS,
            client_fn=_ClientFactory(seed_base),
            policy=policy,
        )
    parts = np.array_split(np.arange(len(train)), NUM_CLIENTS)
    clients = [
        Client(i, train.subset(parts[i]), _model_fn, seed=seed_base + i)
        for i in range(NUM_CLIENTS)
    ]
    return server, clients


def _sync_config(rounds: int, deadline: float | None = None) -> FederationConfig:
    return FederationConfig(
        num_rounds=rounds,
        participation_rate=1.0,
        eval_every=2,
        seed=3,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
        round_deadline_s=deadline,
    )


def _async_config(max_updates: int) -> FederationConfig:
    return FederationConfig(
        num_rounds=10,
        participation_rate=1.0,
        eval_every=4,
        seed=3,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
        max_sim_time_s=1e9,
        max_updates=max_updates,
    )


def _jittery_net(uplink_loss: float = 0.0) -> NetworkConditions:
    """Jittered links so every transfer consumes engine RNG."""
    up = LinkModel(bandwidth_mbps=8.0, latency_ms=5.0, jitter_ms=2.0,
                   loss_rate=uplink_loss)
    down = LinkModel(bandwidth_mbps=20.0, latency_ms=5.0, jitter_ms=2.0)
    return NetworkConditions(
        clients=[ClientNetwork(uplink=up, downlink=down) for _ in range(NUM_CLIENTS)]
    )


def run_sync_fedavg_nonet(trace=None, policy=None) -> RunResult:
    server, clients = _federation(10, policy)
    return SyncEngine(server, clients, FedAvg(participation_rate=1.0),
                      _sync_config(4), trace=trace).run()


def run_sync_fedavg_net_faults(trace=None, policy=None) -> RunResult:
    server, clients = _federation(10, policy)
    chaos = FaultPlan(UploadLossModel(prob=0.5, client_ids={1}))
    return SyncEngine(
        server, clients, FedAvg(participation_rate=0.8),
        _sync_config(4, deadline=5.0), network=_jittery_net(uplink_loss=0.2),
        chaos=chaos, trace=trace,
    ).run()


def run_sync_adafl(trace=None, policy=None) -> RunResult:
    server, clients = _federation(30, policy)
    return SyncEngine(server, clients, AdaFLSync(), _sync_config(6),
                      network=_jittery_net(), trace=trace).run()


def run_async_fedasync_nonet(trace=None, policy=None) -> RunResult:
    server, clients = _federation(20, policy)
    return AsyncEngine(server, clients, FedAsync(), _async_config(12),
                       trace=trace).run()


def run_async_fedasync_net(trace=None, policy=None) -> RunResult:
    server, clients = _federation(20, policy)
    rates = np.full(NUM_CLIENTS, 1e9)
    rates[0] /= 3.0
    return AsyncEngine(server, clients, FedAsync(), _async_config(15),
                       network=_jittery_net(uplink_loss=0.25),
                       device_flops=rates, trace=trace).run()


def run_async_fedbuff_nonet(trace=None, policy=None) -> RunResult:
    server, clients = _federation(20, policy)
    return AsyncEngine(server, clients, FedBuff(buffer_size=3),
                       _async_config(12), trace=trace).run()


CASES = {
    "sync_fedavg_nonet": run_sync_fedavg_nonet,
    "sync_fedavg_net_faults": run_sync_fedavg_net_faults,
    "sync_adafl": run_sync_adafl,
    "async_fedasync_nonet": run_async_fedasync_nonet,
    "async_fedasync_net": run_async_fedasync_net,
    "async_fedbuff_nonet": run_async_fedbuff_nonet,
}


def trajectory(result: RunResult) -> list[dict]:
    """A record-by-record dump precise enough for exact comparison."""
    return [
        {
            "round_index": r.round_index,
            "sim_time_s": repr(float(r.sim_time_s)),
            "num_uploads": r.num_uploads,
            "bytes_up": int(r.bytes_up),
            "bytes_down": int(r.bytes_down),
            "participants": [int(i) for i in r.participants],
            "upload_sizes": [int(b) for b in r.upload_sizes],
            "dropped_uploads": r.dropped_uploads,
            "accuracy": None if r.accuracy is None else repr(float(r.accuracy)),
            "loss": None if r.loss is None else repr(float(r.loss)),
        }
        for r in result.records
    ]


def main() -> None:
    baselines = {name: trajectory(fn()) for name, fn in CASES.items()}
    BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(baselines, indent=1) + "\n")
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    main()
