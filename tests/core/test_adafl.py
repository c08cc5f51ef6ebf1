"""Tests for the AdaFL strategies."""

import numpy as np
import pytest

from repro.core.adafl import SCORE_REPORT_BYTES, AdaFLAsync, AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.fl.async_engine import AsyncEngine
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.server import Server
from repro.fl.strategy import RoundContext
from repro.fl.sync_engine import SyncEngine
from repro.network.conditions import NetworkConditions

NUM_CLIENTS = 5


def small_config(warmup=1, tau=0.4, k_max=2):
    return AdaFLConfig(
        k_max=k_max,
        tau=tau,
        policy=AdaptiveCompressionPolicy(
            min_ratio=2.0, max_ratio=20.0, warmup_rounds=warmup, warmup_ratio=2.0
        ),
    )


@pytest.fixture
def federation(tiny_train, tiny_test, tiny_model_fn):
    parts = np.array_split(np.arange(len(tiny_train)), NUM_CLIENTS)
    clients = [
        Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=30 + i)
        for i in range(NUM_CLIENTS)
    ]
    server = Server(tiny_model_fn, tiny_test)
    return server, clients


def fed_config(rounds=6, max_updates=None):
    return FederationConfig(
        num_rounds=rounds,
        participation_rate=1.0,
        eval_every=1,
        seed=0,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
        max_sim_time_s=1e9,
        max_updates=max_updates,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaFLConfig(k_max=0)
        with pytest.raises(ValueError):
            AdaFLConfig(tau=1.5)
        with pytest.raises(ValueError):
            AdaFLConfig(tau_mode="percentile")
        with pytest.raises(ValueError):
            AdaFLConfig(min_selected=-1)


class TestRelativeTauAndGuards:
    def test_relative_tau_filters_quantile(self, federation):
        server, clients = federation
        config = AdaFLConfig(
            k_max=5,
            tau=0.6,  # filter the lowest 60%
            tau_mode="relative",
            policy=AdaptiveCompressionPolicy(warmup_rounds=0),
        )
        strat = AdaFLSync(config)
        strat.prepare(server, clients)
        server.apply_delta(np.ones(server.dim))
        # Give clients distinct alignments so scores spread out.
        for i, c in enumerate(clients):
            direction = np.ones(server.dim)
            direction[: server.dim // (i + 2)] *= -1
            c.last_delta = direction
        ctx = RoundContext(1, 0.0, server, clients)
        picked = strat.select(list(range(NUM_CLIENTS)), np.random.default_rng(0), ctx)
        # 5 clients, quantile 0.6 -> only the top ~2 pass.
        assert 1 <= len(picked) <= 2

    def test_min_selected_prevents_empty_round(self, federation):
        server, clients = federation
        config = AdaFLConfig(
            k_max=5,
            tau=1.0,  # impossible absolute threshold
            tau_mode="absolute",
            min_selected=1,
            policy=AdaptiveCompressionPolicy(warmup_rounds=0),
        )
        strat = AdaFLSync(config)
        strat.prepare(server, clients)
        server.apply_delta(np.ones(server.dim))
        for c in clients:
            c.last_delta = -np.ones(server.dim)  # all anti-aligned
        ctx = RoundContext(1, 0.0, server, clients)
        picked = strat.select(list(range(NUM_CLIENTS)), np.random.default_rng(0), ctx)
        assert len(picked) == 1

    def test_min_selected_zero_allows_empty(self, federation):
        server, clients = federation
        config = AdaFLConfig(
            k_max=5,
            tau=1.0,
            tau_mode="absolute",
            min_selected=0,
            policy=AdaptiveCompressionPolicy(warmup_rounds=0),
        )
        strat = AdaFLSync(config)
        strat.prepare(server, clients)
        server.apply_delta(np.ones(server.dim))
        for c in clients:
            c.last_delta = -np.ones(server.dim)
        ctx = RoundContext(1, 0.0, server, clients)
        assert strat.select(list(range(NUM_CLIENTS)), np.random.default_rng(0), ctx) == []


class TestAdaFLSyncSelection:
    def test_warmup_selects_everyone(self, federation):
        server, clients = federation
        strat = AdaFLSync(small_config(warmup=3))
        strat.prepare(server, clients)
        ctx = RoundContext(0, 0.0, server, clients)
        picked = strat.select(list(range(NUM_CLIENTS)), np.random.default_rng(0), ctx)
        assert picked == list(range(NUM_CLIENTS))

    def test_post_warmup_caps_at_k(self, federation):
        server, clients = federation
        strat = AdaFLSync(small_config(warmup=0, k_max=2, tau=0.0))
        strat.prepare(server, clients)
        # Give every client a cached delta and the server a global delta.
        for c in clients:
            c.last_delta = np.ones(server.dim)
        server.apply_delta(np.ones(server.dim))
        ctx = RoundContext(1, 0.0, server, clients)
        picked = strat.select(list(range(NUM_CLIENTS)), np.random.default_rng(0), ctx)
        assert len(picked) == 2
        assert strat.last_selection is not None

    def test_tau_filters_misaligned_clients(self, federation):
        server, clients = federation
        strat = AdaFLSync(
            AdaFLConfig(
                k_max=5,
                tau=0.5,
                policy=AdaptiveCompressionPolicy(warmup_rounds=0),
            )
        )
        strat.prepare(server, clients)
        server.apply_delta(np.ones(server.dim))
        for c in clients[:2]:
            c.last_delta = np.ones(server.dim)  # aligned
        for c in clients[2:]:
            c.last_delta = -np.ones(server.dim)  # anti-aligned
        ctx = RoundContext(1, 0.0, server, clients)
        picked = strat.select(list(range(NUM_CLIENTS)), np.random.default_rng(0), ctx)
        assert set(picked) == {0, 1}

    def test_scoring_without_probe_or_retained_delta_raises(self, federation):
        """No probe config and nothing retained is an error, never a
        silent fall back to the scorer's default similarity."""
        server, clients = federation
        strat = AdaFLSync(small_config(warmup=0))
        strat.prepare(server, clients)
        server.apply_delta(np.ones(server.dim))
        ctx = RoundContext(1, 0.0, server, clients)
        with pytest.raises(RuntimeError, match="last_delta"):
            strat.select(list(range(NUM_CLIENTS)), np.random.default_rng(0), ctx)

    def test_probe_scores_keep_nothing_on_the_client(self, federation):
        server, clients = federation
        strat = AdaFLSync(small_config(warmup=0, tau=0.0))
        strat.prepare(server, clients)
        server.apply_delta(np.ones(server.dim))
        ctx = RoundContext(
            1, 0.0, server, clients, local_config=LocalTrainingConfig(batch_size=8)
        )
        picked = strat.select(list(range(NUM_CLIENTS)), np.random.default_rng(0), ctx)
        assert len(picked) == 2
        assert len(strat.last_scores) == NUM_CLIENTS
        assert all(c.last_delta is None for c in clients)

    def test_attaches_compressors(self, federation):
        server, clients = federation
        strat = AdaFLSync(small_config())
        strat.prepare(server, clients)
        assert all(c.compressor is not None for c in clients)


class TestAdaFLSyncRun:
    def test_end_to_end_learns(self, federation):
        server, clients = federation
        result = SyncEngine(server, clients, AdaFLSync(small_config()), fed_config(8)).run()
        assert result.final_accuracy > 0.5
        assert result.method == "adafl"

    def test_compressed_uploads_smaller_than_dense(self, federation):
        server, clients = federation
        result = SyncEngine(server, clients, AdaFLSync(small_config()), fed_config(6)).run()
        dense = 4 * server.dim
        sizes = result.upload_sizes()
        assert sizes.max() < dense
        assert sizes.min() >= 8 + SCORE_REPORT_BYTES  # >= one coordinate

    def test_selection_reduces_uploads_vs_full(self, federation):
        server, clients = federation
        result = SyncEngine(
            server, clients, AdaFLSync(small_config(warmup=1, k_max=2)), fed_config(6)
        ).run()
        full = 6 * NUM_CLIENTS
        # Warm-up round uses everyone; afterwards at most 2 per round.
        assert result.total_uploads <= NUM_CLIENTS + 5 * 2
        assert result.total_uploads < full

    def test_utility_scores_exposed(self, federation):
        server, clients = federation
        strat = AdaFLSync(small_config(warmup=1))
        SyncEngine(server, clients, strat, fed_config(4)).run()
        scores = strat.last_scores
        assert len(scores) == NUM_CLIENTS
        assert all(0.0 <= s <= 1.0 for s in scores.values())


class TestAdaFLAsync:
    def test_end_to_end_learns(self, federation):
        server, clients = federation
        strat = AdaFLAsync(small_config(warmup=2, tau=0.2))
        result = AsyncEngine(server, clients, strat, fed_config(max_updates=30)).run()
        assert result.final_accuracy > 0.5
        assert result.method == "adafl-async"

    def test_halting_reduces_updates_in_equal_time(self, tiny_train, tiny_test, tiny_model_fn):
        """Within the same simulated-time budget, a high tau (heavy
        halting) delivers fewer updates than tau=0 (no halting)."""

        def run(tau, time_budget):
            parts = np.array_split(np.arange(len(tiny_train)), NUM_CLIENTS)
            clients = [
                Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=30 + i)
                for i in range(NUM_CLIENTS)
            ]
            server = Server(tiny_model_fn, tiny_test)
            strat = AdaFLAsync(small_config(warmup=1, tau=tau))
            cfg = FederationConfig(
                num_rounds=10,
                participation_rate=1.0,
                eval_every=1000,
                seed=0,
                local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
                max_sim_time_s=time_budget,
                max_updates=None,
            )
            return AsyncEngine(server, clients, strat, cfg, device_flops=np.full(NUM_CLIENTS, 1e7)).run()

        free = run(tau=0.0, time_budget=0.1)
        gated = run(tau=0.99, time_budget=0.1)
        assert gated.total_uploads < free.total_uploads
        assert gated.total_uploads > 0  # the deadlock guard keeps progress

    def test_warmup_always_trains(self, federation):
        server, clients = federation
        strat = AdaFLAsync(small_config(warmup=100, tau=1.0))
        strat.prepare(server, clients)
        assert strat.should_train(clients[0], server, 0.0)

    def test_default_async_policy_bounds(self):
        strat = AdaFLAsync()
        assert strat.config.policy.max_ratio == 105.0
