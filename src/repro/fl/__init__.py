"""Federated-learning framework: clients, server, strategies, engines."""

from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import (
    ASYNC_BASELINES,
    SYNC_BASELINES,
    FedAdam,
    FedAsync,
    FedAvg,
    FedAvgM,
    FedBuff,
    FedProx,
    Scaffold,
)
from repro.fl.client import Client, ClientUpdate
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.fedat import FedAT, assign_tiers
from repro.fl.metrics import RoundRecord, RunResult
from repro.fl.persist import load_run_result, save_run_result
from repro.fl.population import ClientPopulation, PopulationStats, RetentionPolicy
from repro.fl.server import Server
from repro.fl.snapshot import load_snapshot, save_snapshot
from repro.fl.strategy import (
    AsyncStrategy,
    RoundContext,
    SyncStrategy,
    UploadPacket,
    WeightedFold,
    weighted_average,
)
from repro.fl.sync_engine import SyncEngine
from repro.fl.validation import UpdateValidator, ValidationConfig, trimmed_mean

__all__ = [
    "Client",
    "ClientUpdate",
    "ClientPopulation",
    "RetentionPolicy",
    "PopulationStats",
    "Server",
    "LocalTrainingConfig",
    "FederationConfig",
    "RoundRecord",
    "save_run_result",
    "load_run_result",
    "RunResult",
    "FedAT",
    "assign_tiers",
    "SyncStrategy",
    "AsyncStrategy",
    "RoundContext",
    "UploadPacket",
    "WeightedFold",
    "weighted_average",
    "FedAvg",
    "FedAvgM",
    "FedProx",
    "FedAdam",
    "Scaffold",
    "FedAsync",
    "FedBuff",
    "SYNC_BASELINES",
    "ASYNC_BASELINES",
    "SyncEngine",
    "AsyncEngine",
    "ValidationConfig",
    "UpdateValidator",
    "trimmed_mean",
    "save_snapshot",
    "load_snapshot",
]
