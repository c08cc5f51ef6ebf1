"""Engine integration of the batched multi-client kernel.

Three layers of guarantees:

* the glue (:func:`repro.fl.batched.train_clients_batched`) rebuilds
  the exact ``ClientUpdate`` objects the serial path produces, caches
  trainers across rounds, and declines un-batchable cohorts;
* both engines produce **bit-identical trajectories** with
  ``batched_compute`` on and off (the serial path is the oracle);
* batching actually *engages* on the pinned equivalence scenarios —
  the on/off comparison would pass vacuously if the fused path never
  ran, so the engagement assertions close that loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.fl.async_engine as async_mod
import repro.fl.sync_engine as sync_mod
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg, Scaffold
from repro.fl.batched import train_clients_batched
from repro.fl.client import Client
from repro.fl.config import LocalTrainingConfig
from repro.fl.sync_engine import SyncEngine
from repro.nn.models import build_resnet_mini
from tests.fl.equiv_cases import (
    SHAPE,
    _async_config,
    _federation,
    _jittery_net,
    _sync_config,
    run_async_fedasync_nonet,
    run_sync_fedavg_nonet,
    trajectory,
)

pytestmark = pytest.mark.batched

CFG = LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1)


# ---------------------------------------------------------------------------
# Glue: train_clients_batched
# ---------------------------------------------------------------------------

class TestGlue:
    def test_matches_serial_updates(self):
        _, serial = _federation(10)
        _, fused = _federation(10)
        gp = serial[0].replica.model.get_flat_params().copy()
        cache: dict = {}
        for rnd in range(2):
            expected = [c.local_train(gp, CFG, round_index=rnd) for c in serial]
            updates = train_clients_batched(fused, gp, CFG, round_index=rnd,
                                            cache=cache)
            assert updates is not None
            for exp in expected:
                got = updates[exp.client_id]
                assert np.array_equal(got.delta, exp.delta)
                assert got.train_loss == exp.train_loss
                assert got.flops == exp.flops
                assert got.num_samples == exp.num_samples
                assert got.round_index == rnd
            # The glue returns each delta and keeps none of them.
            assert all(c.last_delta is None for c in fused)
            assert not np.shares_memory(updates[0].delta, updates[1].delta)
            gp = gp - 0.5 * np.mean([u.delta for u in expected], axis=0)

    def test_trainer_cached_across_rounds(self):
        _, clients = _federation(10)
        gp = clients[0].replica.model.get_flat_params().copy()
        cache: dict = {}
        train_clients_batched(clients, gp, CFG, cache=cache)
        assert len(cache) == 1
        trainer = next(iter(cache.values()))
        train_clients_batched(clients, gp, CFG, round_index=1, cache=cache)
        assert next(iter(cache.values())) is trainer

    def test_single_client_falls_back(self):
        _, clients = _federation(10)
        gp = clients[0].replica.model.get_flat_params().copy()
        assert train_clients_batched(clients[:1], gp, CFG) is None

    def test_unknown_kwarg_falls_back(self):
        _, clients = _federation(10)
        gp = clients[0].replica.model.get_flat_params().copy()
        kw = {clients[0].client_id: {"custom_knob": 1}}
        assert train_clients_batched(clients, gp, CFG, kwargs_by_cid=kw) is None

    def test_mixed_scaffold_cohort_falls_back(self):
        _, clients = _federation(10)
        gp = clients[0].replica.model.get_flat_params().copy()
        kw = {clients[0].client_id: {"server_control": np.zeros_like(gp)}}
        assert train_clients_batched(clients, gp, CFG, kwargs_by_cid=kw) is None

    def test_unsupported_model_negative_cached(self):
        def model_fn():
            return build_resnet_mini(SHAPE, num_classes=4, seed=3)

        _, template = _federation(10)
        clients = [
            Client(i, template[i].dataset, model_fn, seed=10 + i)
            for i in range(3)
        ]
        gp = clients[0].replica.model.get_flat_params().copy()
        cache: dict = {}
        assert train_clients_batched(clients, gp, CFG, cache=cache) is None
        assert len(cache) == 1  # negative entry: cost paid once
        assert train_clients_batched(clients, gp, CFG, cache=cache) is None


# ---------------------------------------------------------------------------
# Engines: on/off trajectory identity + engagement
# ---------------------------------------------------------------------------

def _run_sync(batched: bool):
    server, clients = _federation(10)
    cfg = dataclasses.replace(_sync_config(4), batched_compute=batched)
    engine = SyncEngine(server, clients, FedAvg(participation_rate=1.0), cfg)
    return trajectory(engine.run()), engine


def _run_async(batched: bool):
    server, clients = _federation(20)
    cfg = dataclasses.replace(_async_config(12), batched_compute=batched)
    engine = AsyncEngine(server, clients, FedAsync(), cfg)
    return trajectory(engine.run()), engine


class TestEngineEquivalence:
    def test_sync_on_off_identical_and_engaged(self):
        on, engine_on = _run_sync(True)
        off, engine_off = _run_sync(False)
        assert on == off
        assert engine_on._batched_cache  # fused path actually ran
        assert not engine_off._batched_cache

    def test_async_on_off_identical_and_engaged(self):
        on, engine_on = _run_async(True)
        off, engine_off = _run_async(False)
        assert on == off
        assert engine_on._batched_cache
        assert not engine_off._batched_cache

    def test_sync_scaffold_on_off_identical(self):
        def run(batched: bool):
            server, clients = _federation(10)
            cfg = dataclasses.replace(_sync_config(4),
                                      batched_compute=batched)
            engine = SyncEngine(server, clients,
                                Scaffold(participation_rate=1.0), cfg)
            return trajectory(engine.run()), engine

        on, engine_on = run(True)
        off, _ = run(False)
        assert on == off
        assert engine_on._batched_cache

    def test_sync_with_network_stays_serial(self):
        # Networked transfers draw from the shared simulation RNG in
        # client order; batching is therefore restricted to the
        # no-network configuration and must not engage here.
        server, clients = _federation(10)
        engine = SyncEngine(server, clients, FedAvg(participation_rate=1.0),
                            _sync_config(2), network=_jittery_net())
        engine.run()
        assert not engine._batched_cache


class TestPinnedCasesEngage:
    """The committed equivalence baselines run with batching on by
    default; these confirm the no-network pinned cases really exercise
    the fused path (the baseline match is asserted elsewhere)."""

    def test_sync_pinned_case_engages(self, monkeypatch):
        hits = []
        real = sync_mod.train_clients_batched

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            hits.append(out is not None)
            return out

        monkeypatch.setattr(sync_mod, "train_clients_batched", counting)
        run_sync_fedavg_nonet()
        assert any(hits)

    def test_async_pinned_case_engages(self, monkeypatch):
        hits = []
        real = async_mod.train_clients_batched

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            hits.append(out is not None)
            return out

        monkeypatch.setattr(async_mod, "train_clients_batched", counting)
        run_async_fedasync_nonet()
        assert any(hits)


# ---------------------------------------------------------------------------
# The trainer cache is bounded by cohort shapes, not by who was drawn
# ---------------------------------------------------------------------------

class TestTrainerCacheIsBounded:
    """``FedAvg(participation_rate=0.5)`` draws a different half of the
    federation every round.  The fused trainer is keyed by what it is
    built from — architecture, cohort size, config — so forty rounds
    reuse one trainer; keyed by the cohort's ids it kept one per round
    (and the ``(K, d)`` stacks and conv workspaces of each) for as long
    as the engine lived."""

    ROUNDS = 40

    def _engine(self):
        from repro.experiments.presets import get_scale
        from repro.experiments.runner import (
            FederationSpec,
            _federation_config,
            build_federation,
        )

        fast = get_scale("fast")
        scale = dataclasses.replace(
            fast, num_clients=20, train_samples=2 * fast.train_samples,
            num_rounds=self.ROUNDS,
        )
        spec = FederationSpec(
            dataset="mnist", model="mnist_cnn", distribution="shard",
            scale=scale, seed=0,
        )
        fed = build_federation(spec)
        assert len(fed.clients) == 20
        return SyncEngine(
            fed.server, fed.clients, FedAvg(participation_rate=0.5),
            _federation_config(spec),
        )

    def test_forty_half_cohort_rounds_keep_one_trainer_and_flat_memory(self):
        import tracemalloc

        engine = self._engine()
        cohorts, peaks = set(), []
        tracemalloc.start()
        try:
            for record in engine.iter_rounds():
                cohorts.add(tuple(sorted(record.participants)))
                _, peak = tracemalloc.get_traced_memory()
                peaks.append(peak)
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        assert len(cohorts) > self.ROUNDS // 2  # the draw really varies
        assert len(engine._batched_cache) <= 2
        # Warm by round 5 (trainer, scratch buffers, every client's
        # cached delta); nothing accumulates afterwards.
        assert max(peaks[5:]) <= 1.1 * max(peaks[:5])
