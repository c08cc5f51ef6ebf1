"""Tests for the six baseline FL methods."""

import numpy as np
import pytest

from repro.fl.baselines import (
    ASYNC_BASELINES,
    SYNC_BASELINES,
    FedAdam,
    FedAsync,
    FedAvg,
    FedBuff,
    FedProx,
    Scaffold,
)
from repro.fl.client import Client, ClientUpdate
from repro.fl.config import LocalTrainingConfig
from repro.fl.server import Server
from repro.fl.strategy import RoundContext


def make_update(cid, delta, n=10, extras=None):
    return ClientUpdate(
        client_id=cid,
        round_index=0,
        num_samples=n,
        delta=np.asarray(delta, dtype=np.float64),
        train_loss=0.0,
        flops=0,
        extras=extras or {},
    )


@pytest.fixture
def server(tiny_model_fn, tiny_test):
    return Server(tiny_model_fn, tiny_test)


class TestRegistries:
    def test_sync_names(self):
        assert set(SYNC_BASELINES) == {
            "fedavg",
            "fedavgm",
            "fedprox",
            "fedadam",
            "scaffold",
        }

    def test_async_names(self):
        assert set(ASYNC_BASELINES) == {"fedasync", "fedbuff"}


class TestFedAvg:
    def test_aggregation_moves_model(self, server):
        strat = FedAvg()
        ctx = RoundContext(0, 0.0, server, [])
        before = server.params.copy()
        strat.aggregate(server, [make_update(0, np.ones(server.dim))], ctx)
        np.testing.assert_allclose(server.params, before + 1.0)


class TestFedProx:
    def test_sets_prox_mu(self):
        cfg = FedProx(mu=0.05).local_config(LocalTrainingConfig())
        assert cfg.prox_mu == 0.05

    def test_requires_positive_mu(self):
        with pytest.raises(ValueError):
            FedProx(mu=0.0)


class TestFedAdam:
    def test_prepare_required(self, server):
        strat = FedAdam()
        ctx = RoundContext(0, 0.0, server, [])
        with pytest.raises(RuntimeError):
            strat.aggregate(server, [make_update(0, np.ones(server.dim))], ctx)

    def test_step_moves_toward_delta(self, server):
        strat = FedAdam(server_lr=0.1)
        strat.prepare(server, [])
        ctx = RoundContext(0, 0.0, server, [])
        before = server.params.copy()
        delta = np.ones(server.dim)
        strat.aggregate(server, [make_update(0, delta)], ctx)
        moved = server.params - before
        # Adam normalises magnitude, but the direction must follow delta.
        assert np.all(moved > 0)

    def test_empty_round_is_noop(self, server):
        strat = FedAdam()
        strat.prepare(server, [])
        before = server.params.copy()
        strat.aggregate(server, [], RoundContext(0, 0.0, server, []))
        np.testing.assert_array_equal(server.params, before)


class TestScaffold:
    def test_prepare_initialises_control(self, server):
        strat = Scaffold()
        strat.prepare(server, [None] * 4)
        assert np.all(strat._control == 0.0)

    def test_wire_cost_doubled(self, server):
        strat = Scaffold()
        ctx = RoundContext(0, 0.0, server, [])
        u = make_update(0, np.ones(server.dim))
        assert strat.process_upload(None, u, ctx).nbytes == 2 * 4 * server.dim
        assert strat.downlink_bytes(server) == 2 * 4 * server.dim

    def test_aggregate_updates_control(self, server):
        strat = Scaffold()
        strat.prepare(server, [None] * 2)
        ctx = RoundContext(0, 0.0, server, [])
        updates = [
            make_update(0, np.ones(server.dim), extras={"control_delta": np.ones(server.dim)}),
            make_update(1, np.ones(server.dim), extras={"control_delta": np.ones(server.dim)}),
        ]
        strat.aggregate(server, updates, ctx)
        np.testing.assert_allclose(strat._control, np.ones(server.dim))

    def test_client_train_kwargs_provides_control(self, server):
        strat = Scaffold()
        strat.prepare(server, [None])
        kwargs = strat.client_train_kwargs(None)
        assert kwargs["server_control"] is strat._control

    def test_kwargs_before_prepare_raises(self):
        with pytest.raises(RuntimeError):
            Scaffold().client_train_kwargs(None)


class TestFedAsync:
    def test_staleness_discount_monotone(self):
        strat = FedAsync(alpha=0.6, poly_a=0.5)
        alphas = [strat.effective_alpha(s) for s in range(5)]
        assert alphas == sorted(alphas, reverse=True)
        assert alphas[0] == 0.6

    def test_on_update_mixes_models(self, server):
        strat = FedAsync(alpha=0.5, poly_a=0.0)
        base = server.params.copy()
        delta = np.ones(server.dim)
        u = make_update(0, delta, extras={"base_params": base})
        changed = strat.on_update(server, u, delta, staleness=0)
        assert changed
        np.testing.assert_allclose(server.params, base + 0.5 * delta)

    def test_stale_update_discounted(self, server):
        strat = FedAsync(alpha=0.8, poly_a=1.0)
        base = server.params.copy()
        delta = np.ones(server.dim)
        u = make_update(0, delta, extras={"base_params": base})
        strat.on_update(server, u, delta, staleness=3)
        moved = np.abs(server.params - base).max()
        assert moved < 0.8 * 0.5  # alpha/(1+3) = 0.2

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            FedAsync().effective_alpha(-1)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            FedAsync(alpha=0.0)


class TestFedBuff:
    def test_buffers_until_full(self, server):
        strat = FedBuff(buffer_size=3)
        strat.prepare(server, [])
        before = server.params.copy()
        delta = np.ones(server.dim)
        for i in range(2):
            changed = strat.on_update(server, make_update(i, delta), delta, 0)
            assert not changed
        np.testing.assert_array_equal(server.params, before)
        changed = strat.on_update(server, make_update(2, delta), delta, 0)
        assert changed
        np.testing.assert_allclose(server.params, before + 1.0)

    def test_buffer_clears_after_flush(self, server):
        strat = FedBuff(buffer_size=2)
        strat.prepare(server, [])
        delta = np.ones(server.dim)
        strat.on_update(server, make_update(0, delta), delta, 0)
        strat.on_update(server, make_update(1, delta), delta, 0)
        assert strat._buffer == []

    def test_staleness_discounts_contribution(self, server):
        strat = FedBuff(buffer_size=1, poly_a=1.0)
        strat.prepare(server, [])
        before = server.params.copy()
        delta = np.ones(server.dim)
        strat.on_update(server, make_update(0, delta), delta, staleness=3)
        np.testing.assert_allclose(server.params, before + 0.25)

    def test_bad_buffer_size(self):
        with pytest.raises(ValueError):
            FedBuff(buffer_size=0)
