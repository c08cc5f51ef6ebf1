"""Tests for the FedAvgM server-momentum baseline."""

import numpy as np
import pytest

from repro.fl.baselines import SYNC_BASELINES, FedAvgM
from repro.fl.client import ClientUpdate
from repro.fl.server import Server
from repro.fl.strategy import RoundContext, WeightedFold


def make_update(delta, n=10):
    return ClientUpdate(
        client_id=0,
        round_index=0,
        num_samples=n,
        delta=np.asarray(delta, dtype=np.float64),
        train_loss=0.0,
        flops=0,
    )


@pytest.fixture
def server(tiny_model_fn, tiny_test):
    return Server(tiny_model_fn, tiny_test)


class TestFedAvgM:
    def test_registered(self):
        assert SYNC_BASELINES["fedavgm"] is FedAvgM

    def test_first_round_matches_fedavg(self, server):
        strat = FedAvgM(beta=0.9, server_lr=1.0)
        strat.prepare(server, [])
        before = server.params.copy()
        delta = np.ones(server.dim)
        ctx = RoundContext(0, 0.0, server, [])
        strat.aggregate(server, WeightedFold.of([make_update(delta)]), ctx)
        np.testing.assert_allclose(server.params, before + delta)

    def test_momentum_accumulates(self, server):
        strat = FedAvgM(beta=0.5, server_lr=1.0)
        strat.prepare(server, [])
        before = server.params.copy()
        delta = np.ones(server.dim)
        ctx = RoundContext(0, 0.0, server, [])
        strat.aggregate(server, WeightedFold.of([make_update(delta)]), ctx)  # v = 1
        strat.aggregate(server, WeightedFold.of([make_update(delta)]), ctx)  # v = 1.5
        np.testing.assert_allclose(server.params, before + 1.0 + 1.5)

    def test_requires_prepare(self, server):
        strat = FedAvgM()
        with pytest.raises(RuntimeError):
            strat.aggregate(
                server,
                WeightedFold.of([make_update(np.ones(server.dim))]),
                RoundContext(0, 0.0, server, []),
            )

    def test_empty_round_noop(self, server):
        strat = FedAvgM()
        strat.prepare(server, [])
        before = server.params.copy()
        strat.aggregate(server, WeightedFold(), RoundContext(0, 0.0, server, []))
        np.testing.assert_array_equal(server.params, before)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedAvgM(server_lr=0.0)
        with pytest.raises(ValueError):
            FedAvgM(beta=1.0)

    def test_end_to_end_learns(self, tiny_train, tiny_test, tiny_model_fn):
        from repro.fl.client import Client
        from repro.fl.config import FederationConfig, LocalTrainingConfig
        from repro.fl.sync_engine import SyncEngine

        parts = np.array_split(np.arange(len(tiny_train)), 4)
        clients = [
            Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=70 + i)
            for i in range(4)
        ]
        server = Server(tiny_model_fn, tiny_test)
        cfg = FederationConfig(
            num_rounds=8,
            participation_rate=1.0,
            eval_every=8,
            seed=0,
            local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.05),
        )
        result = SyncEngine(
            server, clients, FedAvgM(participation_rate=1.0, beta=0.5), cfg
        ).run()
        assert result.final_accuracy > 0.5
