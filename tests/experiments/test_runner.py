"""Tests for the federation builder and run helpers (FAST scale)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.presets import FAST
from repro.experiments.runner import (
    DATASET_PROFILES,
    FederationSpec,
    build_federation,
    run_async,
    run_sync,
)
from repro.fl.baselines import FedAsync, FedAvg

TINY = replace(
    FAST,
    num_rounds=3,
    train_samples=100,
    test_samples=40,
    image_size=8,
    cnn_channels=(2, 4),
    cnn_hidden=8,
    eval_every=1,
)


class TestSpec:
    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            FederationSpec(dataset="imagenet")

    def test_profiles_cover_paper_datasets(self):
        assert set(DATASET_PROFILES) == {"mnist", "cifar10", "cifar100"}


class TestBuildFederation:
    def test_builds_consistent_federation(self):
        spec = FederationSpec(dataset="mnist", model="mnist_cnn", scale=TINY, seed=1)
        fed = build_federation(spec)
        assert len(fed.clients) == TINY.num_clients
        assert fed.server.dim == fed.clients[0].model_dim
        assert sum(c.num_samples for c in fed.clients) == TINY.train_samples

    def test_clients_start_from_same_architecture(self):
        spec = FederationSpec(dataset="mnist", model="mlp", scale=TINY, seed=1)
        fed = build_federation(spec)
        dims = {c.model_dim for c in fed.clients}
        assert dims == {fed.server.dim}

    def test_seed_reproducible(self):
        spec = FederationSpec(dataset="mnist", model="mlp", scale=TINY, seed=5)
        a = build_federation(spec)
        b = build_federation(spec)
        np.testing.assert_array_equal(a.server.params, b.server.params)
        np.testing.assert_array_equal(a.test_set.x, b.test_set.x)

    def test_shard_distribution_is_noniid(self):
        spec = FederationSpec(
            dataset="mnist", model="mlp", distribution="shard", scale=TINY, seed=1
        )
        fed = build_federation(spec)
        classes_per_client = [
            int((c.dataset.class_counts() > 0).sum()) for c in fed.clients
        ]
        assert max(classes_per_client) <= 4

    @pytest.mark.parametrize("model", ["mnist_cnn", "mlp", "resnet_mini", "vgg_mini"])
    def test_all_models_build(self, model):
        spec = FederationSpec(dataset="cifar10", model=model, scale=TINY, seed=0)
        fed = build_federation(spec)
        assert fed.server.dim > 0

    def test_unknown_model(self):
        # At construction: before any data is synthesised.
        with pytest.raises(ValueError, match="unknown model 'transformer'; known: mnist_cnn"):
            FederationSpec(dataset="mnist", model="transformer", scale=TINY)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution.*quantity_skew"):
            FederationSpec(distribution="bogus", scale=TINY)


class TestRunHelpers:
    def test_run_sync_produces_result(self):
        spec = FederationSpec(dataset="mnist", model="mlp", scale=TINY, seed=0)
        result = run_sync(spec, FedAvg(participation_rate=0.5))
        assert len(result.records) == TINY.num_rounds
        assert result.model_bytes > 0

    def test_run_async_respects_max_updates(self):
        spec = FederationSpec(dataset="mnist", model="mlp", scale=TINY, seed=0)
        result = run_async(spec, FedAsync(), max_updates=12)
        assert result.total_uploads == 12
