"""Validation tests for configuration dataclasses."""

import pytest

from repro.fl.config import FederationConfig, LocalTrainingConfig


class TestLocalTrainingConfig:
    def test_defaults_valid(self):
        cfg = LocalTrainingConfig()
        assert cfg.local_epochs == 1
        assert cfg.prox_mu == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"local_epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"lr": -0.1},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"prox_mu": -0.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LocalTrainingConfig(**kwargs)

    def test_frozen(self):
        cfg = LocalTrainingConfig()
        with pytest.raises(Exception):
            cfg.lr = 0.5


class TestFederationConfig:
    def test_defaults_valid(self):
        cfg = FederationConfig()
        assert cfg.num_rounds > 0
        assert isinstance(cfg.local, LocalTrainingConfig)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_rounds": 0},
            {"participation_rate": 0.0},
            {"participation_rate": 1.5},
            {"eval_every": 0},
            {"max_sim_time_s": 0.0},
            {"max_updates": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FederationConfig(**kwargs)

    def test_nested_local_config(self):
        cfg = FederationConfig(local=LocalTrainingConfig(lr=0.5))
        assert cfg.local.lr == 0.5
