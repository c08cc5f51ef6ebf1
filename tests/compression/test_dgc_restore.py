"""Tests for DGC payload restore (ACK/NACK semantics)."""

import numpy as np
import pytest

from repro.compression.dgc import DGCCompressor


class TestRestore:
    def test_restore_returns_values_to_residual(self, rng):
        comp = DGCCompressor(20, ratio=4.0, clip_norm=None, use_momentum_correction=False)
        grad = rng.normal(size=20)
        payload = comp.compress(grad)
        residual_after_send = comp._residual.copy()
        comp.restore(payload)
        # Restored residual + nothing-sent == original accumulated grad.
        np.testing.assert_allclose(
            comp._residual, residual_after_send + comp.decompress(payload).to_dense(), atol=1e-6
        )

    def test_lossy_conservation(self, rng):
        """With restore on every loss, no gradient information vanishes."""
        comp = DGCCompressor(30, ratio=5.0, clip_norm=None, use_momentum_correction=False)
        total_in = np.zeros(30)
        total_delivered = np.zeros(30)
        loss_rng = np.random.default_rng(1)
        for _ in range(20):
            grad = rng.normal(size=30)
            total_in += grad
            payload = comp.compress(grad)
            if loss_rng.random() < 0.4:  # lost in transit
                comp.restore(payload)
            else:
                total_delivered += comp.decompress(payload).to_dense()
        np.testing.assert_allclose(
            total_delivered + comp._residual, total_in, atol=1e-4
        )

    def test_restore_rejects_foreign_payload(self, rng):
        comp = DGCCompressor(10, ratio=2.0)
        other = DGCCompressor(12, ratio=2.0)
        payload = other.compress(rng.normal(size=12))
        with pytest.raises(ValueError):
            comp.restore(payload)

    def test_restore_rejects_wrong_method(self, rng):
        from repro.compression.identity import NoCompression

        comp = DGCCompressor(10, ratio=2.0)
        payload = NoCompression(10).compress(rng.normal(size=10))
        with pytest.raises(ValueError):
            comp.restore(payload)


class TestAdaFLNackIntegration:
    def test_lossy_uplink_triggers_restore(self, tiny_train, tiny_test, tiny_model_fn):
        """On a very lossy uplink AdaFL's residual survives via NACKs."""
        from repro.core.adafl import AdaFLConfig, AdaFLSync
        from repro.core.compression_policy import AdaptiveCompressionPolicy
        from repro.fl.client import Client
        from repro.fl.config import FederationConfig, LocalTrainingConfig
        from repro.fl.server import Server
        from repro.fl.sync_engine import SyncEngine
        from repro.network.conditions import ClientNetwork, NetworkConditions
        from repro.network.link import LinkModel

        parts = np.array_split(np.arange(len(tiny_train)), 4)
        clients = [
            Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=95 + i)
            for i in range(4)
        ]
        server = Server(tiny_model_fn, tiny_test)
        lossy = LinkModel(bandwidth_mbps=100.0, loss_rate=0.5)
        net = NetworkConditions(
            clients=[ClientNetwork(uplink=lossy, downlink=lossy) for _ in range(4)]
        )
        strat = AdaFLSync(
            AdaFLConfig(
                k_max=4,
                tau=0.0,
                policy=AdaptiveCompressionPolicy(
                    warmup_rounds=1, warmup_ratio=2.0, min_ratio=2.0, max_ratio=8.0
                ),
            )
        )
        cfg = FederationConfig(
            num_rounds=8,
            participation_rate=1.0,
            eval_every=8,
            seed=0,
            local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
        )
        result = SyncEngine(server, clients, strat, cfg, network=net).run()
        assert result.total_dropped > 0  # losses happened
        # After a NACK the in-flight table must not keep stale payloads.
        assert strat._in_flight == {} or all(
            cid in range(4) for cid in strat._in_flight
        )
        assert result.final_accuracy > 0.3  # training survived the losses
