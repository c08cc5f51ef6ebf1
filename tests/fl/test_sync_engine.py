"""Integration tests for the synchronous engine."""

import numpy as np
import pytest

from repro.fl.baselines import FedAvg, Scaffold
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.metrics import RunResult
from repro.fl.server import Server
from repro.fl.sync_engine import SyncEngine
from repro.network.conditions import NetworkConditions
from repro.network.link import LinkModel
from repro.sim import FaultPlan, StragglerDropoutModel, UploadLossModel


NUM_CLIENTS = 5


@pytest.fixture
def federation(tiny_train, tiny_test, tiny_model_fn):
    parts = np.array_split(np.arange(len(tiny_train)), NUM_CLIENTS)
    clients = [
        Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=10 + i)
        for i in range(NUM_CLIENTS)
    ]
    server = Server(tiny_model_fn, tiny_test)
    return server, clients


def config(rounds=5, rate=1.0, **kwargs):
    return FederationConfig(
        num_rounds=rounds,
        participation_rate=rate,
        eval_every=1,
        seed=0,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
        **kwargs,
    )


class TestBasicRun:
    def test_produces_one_record_per_round(self, federation):
        server, clients = federation
        result = SyncEngine(server, clients, FedAvg(participation_rate=1.0), config(4)).run()
        assert isinstance(result, RunResult)
        assert len(result.records) == 4
        assert result.method == "fedavg"

    def test_learning_happens(self, federation):
        server, clients = federation
        result = SyncEngine(server, clients, FedAvg(participation_rate=1.0), config(8)).run()
        _, accs = result.accuracy_curve()
        assert accs[-1] > accs[0]
        assert accs[-1] > 0.5

    def test_upload_accounting_dense(self, federation):
        server, clients = federation
        result = SyncEngine(server, clients, FedAvg(participation_rate=1.0), config(3)).run()
        assert result.total_uploads == 3 * NUM_CLIENTS
        assert result.total_bytes_up == 3 * NUM_CLIENTS * 4 * server.dim

    def test_participation_rate_respected(self, federation):
        server, clients = federation
        result = SyncEngine(
            server, clients, FedAvg(participation_rate=0.4), config(5, rate=0.4)
        ).run()
        assert result.total_uploads == 5 * 2

    def test_eval_every(self, federation):
        server, clients = federation
        cfg = FederationConfig(
            num_rounds=4,
            participation_rate=1.0,
            eval_every=2,
            seed=0,
            local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
        )
        result = SyncEngine(server, clients, FedAvg(participation_rate=1.0), cfg).run()
        evaluated = [r for r in result.records if r.accuracy is not None]
        assert len(evaluated) == 2

    def test_deterministic_given_seed(self, tiny_train, tiny_test, tiny_model_fn):
        def run():
            parts = np.array_split(np.arange(len(tiny_train)), NUM_CLIENTS)
            clients = [
                Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=10 + i)
                for i in range(NUM_CLIENTS)
            ]
            server = Server(tiny_model_fn, tiny_test)
            return SyncEngine(
                server, clients, FedAvg(participation_rate=0.6), config(4, rate=0.6)
            ).run()

        a, b = run(), run()
        assert a.final_accuracy == b.final_accuracy
        assert [r.participants for r in a.records] == [r.participants for r in b.records]


class TestNetworkEffects:
    def test_round_time_uses_slowest(self, federation):
        server, clients = federation
        slow = LinkModel(bandwidth_mbps=0.1, latency_ms=0.0)
        fast = LinkModel(bandwidth_mbps=1000.0, latency_ms=0.0)
        from repro.network.conditions import ClientNetwork

        net = NetworkConditions(
            clients=[ClientNetwork(uplink=fast, downlink=fast) for _ in range(NUM_CLIENTS)]
        )
        net.clients[0] = ClientNetwork(uplink=slow, downlink=slow)
        result = SyncEngine(
            server, clients, FedAvg(participation_rate=1.0), config(1), network=net
        ).run()
        # The slow client's serialisation time dominates the round.
        expected = 2 * (4 * server.dim * 8 / (0.1 * 1e6))  # down + up
        assert result.total_sim_time >= 0.9 * expected

    def test_lossy_uplink_drops_updates(self, federation):
        server, clients = federation
        lossy = LinkModel(bandwidth_mbps=10.0, loss_rate=0.9)
        from repro.network.conditions import ClientNetwork

        net = NetworkConditions(
            clients=[ClientNetwork(uplink=lossy, downlink=lossy) for _ in range(NUM_CLIENTS)]
        )
        result = SyncEngine(
            server, clients, FedAvg(participation_rate=1.0), config(4), network=net
        ).run()
        assert result.total_dropped > 0
        assert result.total_uploads < 4 * NUM_CLIENTS


class TestFaults:
    def test_dropout_reduces_participation(self, federation):
        server, clients = federation
        chaos = FaultPlan(StragglerDropoutModel(period=2, client_ids={0, 1}))
        result = SyncEngine(
            server, clients, FedAvg(participation_rate=1.0), config(4), chaos=chaos
        ).run()
        # Two stragglers miss every other round: 4*5 - 2*2 = 16 uploads.
        assert result.total_uploads == 16

    def test_dataloss_drops_uploads(self, federation):
        server, clients = federation
        chaos = FaultPlan(UploadLossModel(prob=1.0, client_ids={0}))
        result = SyncEngine(
            server, clients, FedAvg(participation_rate=1.0), config(4), chaos=chaos
        ).run()
        assert result.total_uploads == 4 * (NUM_CLIENTS - 1)
        assert result.total_dropped == 4


class TestScaffoldIntegration:
    def test_scaffold_runs_and_learns(self, federation):
        server, clients = federation
        result = SyncEngine(
            server, clients, Scaffold(participation_rate=1.0), config(8)
        ).run()
        assert result.final_accuracy > 0.5


class TestValidation:
    def test_no_clients(self, tiny_model_fn, tiny_test):
        server = Server(tiny_model_fn, tiny_test)
        with pytest.raises(ValueError):
            SyncEngine(server, [], FedAvg(), config())

    def test_network_size_mismatch(self, federation):
        server, clients = federation
        net = NetworkConditions.uniform(2)
        with pytest.raises(ValueError):
            SyncEngine(server, clients, FedAvg(), config(), network=net)

    def test_device_flops_mismatch(self, federation):
        server, clients = federation
        with pytest.raises(ValueError):
            SyncEngine(server, clients, FedAvg(), config(), device_flops=np.ones(2))
