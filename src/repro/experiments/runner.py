"""Shared experiment plumbing: build a federation from a spec and run it.

Every figure/table runner builds on :func:`run_sync` / :func:`run_async`
so that the only thing an experiment module describes is *what varies*
(strategy, faults, network mix) — dataset synthesis, partitioning,
model construction, engine wiring, the evaluation's straggler network
and slow-Pi cluster, and the figure-panel printer stay in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.data.partition import partition_dataset
from repro.data.synthetic import make_image_classification
from repro.embedded.cluster import compute_rates, make_heterogeneous_cluster
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.reporting import format_series
from repro.fl.async_engine import AsyncEngine
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.metrics import RunResult
from repro.fl.replica import ModelReplica
from repro.fl.server import Server
from repro.fl.strategy import AsyncStrategy, SyncStrategy
from repro.fl.sync_engine import SyncEngine
from repro.network.conditions import NetworkConditions
from repro.sim import EventTrace
from repro.nn.models import build_mlp, build_mnist_cnn, build_resnet_mini, build_vgg_mini
from repro.nn.sequential import Sequential

__all__ = ["DatasetProfile", "DATASET_PROFILES", "FederationSpec", "Federation",
           "build_federation", "run_sync", "run_async", "straggler_network",
           "slow_pi_rates", "format_panels"]


@dataclass(frozen=True)
class DatasetProfile:
    """Synthesis parameters for one named dataset stand-in.

    ``sample_multiplier`` scales the experiment's ``train_samples`` for
    datasets that need more data per class (CIFAR-100's hundred classes
    would otherwise see ~12 samples each at bench scale).
    """

    channels: int
    num_classes: int
    noise_std: float
    prototypes_per_class: int
    sample_multiplier: float = 1.0


# Noise levels are calibrated so the paper's models approach the
# paper's accuracy regimes (MNIST low-90s; CIFAR-100 middling) rather
# than saturating instantly — see EXPERIMENTS.md.
DATASET_PROFILES: dict[str, DatasetProfile] = {
    "mnist": DatasetProfile(channels=1, num_classes=10, noise_std=1.35, prototypes_per_class=1),
    "cifar10": DatasetProfile(channels=3, num_classes=10, noise_std=1.7, prototypes_per_class=2),
    "cifar100": DatasetProfile(
        channels=3,
        num_classes=100,
        noise_std=0.95,
        prototypes_per_class=1,
        sample_multiplier=3.0,
    ),
}


@dataclass(frozen=True)
class FederationSpec:
    """A complete description of one federated run's fixed inputs."""

    dataset: str = "mnist"
    model: str = "mnist_cnn"
    distribution: str = "iid"  # iid | shard | dirichlet | label_skew
    scale: ExperimentScale = field(default_factory=lambda: BENCH)
    seed: int = 0
    lr: float = 0.02
    momentum: float = 0.0
    participation_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_PROFILES:
            known = ", ".join(sorted(DATASET_PROFILES))
            raise ValueError(f"unknown dataset {self.dataset!r}; known: {known}")


@dataclass
class Federation:
    """A constructed federation, ready for an engine."""

    server: Server
    clients: list[Client]
    test_set: Dataset
    model_fn: Callable[[], Sequential]
    spec: FederationSpec


def _model_builder(spec: FederationSpec) -> Callable[[], Sequential]:
    profile = DATASET_PROFILES[spec.dataset]
    size = spec.scale.image_size
    shape = (profile.channels, size, size)
    classes = profile.num_classes
    model_seed = spec.seed + 7919  # decouple init from data sampling
    if spec.model == "mnist_cnn":
        return lambda: build_mnist_cnn(
            shape,
            classes,
            channels=spec.scale.cnn_channels,
            hidden=spec.scale.cnn_hidden,
            seed=model_seed,
        )
    if spec.model == "mlp":
        return lambda: build_mlp(shape, classes, hidden=(spec.scale.cnn_hidden,), seed=model_seed)
    if spec.model == "resnet_mini":
        return lambda: build_resnet_mini(
            shape, classes, width=spec.scale.cnn_channels[0], num_blocks=1, seed=model_seed
        )
    if spec.model == "vgg_mini":
        return lambda: build_vgg_mini(
            shape,
            classes,
            widths=spec.scale.cnn_channels,
            hidden=spec.scale.cnn_hidden,
            seed=model_seed,
        )
    raise ValueError(f"unknown model {spec.model!r}")


def build_federation(spec: FederationSpec) -> Federation:
    """Synthesize data, partition it, and build server + clients."""
    profile = DATASET_PROFILES[spec.dataset]
    size = spec.scale.image_size
    train, test = make_image_classification(
        n_train=int(spec.scale.train_samples * profile.sample_multiplier),
        n_test=spec.scale.test_samples,
        num_classes=profile.num_classes,
        image_shape=(profile.channels, size, size),
        noise_std=profile.noise_std,
        prototypes_per_class=profile.prototypes_per_class,
        seed=spec.seed,
        name=spec.dataset,
    )
    rng = np.random.default_rng(spec.seed + 1)
    shards = partition_dataset(train, spec.scale.num_clients, spec.distribution, rng)
    model_fn = _model_builder(spec)
    clients = [
        Client(i, shards[i], model_fn, seed=spec.seed + 1000 + i)
        for i in range(spec.scale.num_clients)
    ]
    # One scratch model for the federation, whoever ends up running its
    # clients (an engine's population, a socket worker's RPC loop).
    replicas: list[ModelReplica] = []
    for client in clients:
        client.adopt_replica(replicas)
    server = Server(model_fn, test)
    return Federation(server=server, clients=clients, test_set=test, model_fn=model_fn, spec=spec)


def straggler_network(num_clients: int, seed: int) -> NetworkConditions:
    """The evaluation's fixed-bandwidth network (Tables I/II, Fig. 3, the
    ablation, the sweep's ``constrained`` profile): 80% wifi links and a
    random 20% minority on constrained edge links."""
    return NetworkConditions.with_stragglers(
        num_clients,
        straggler_fraction=0.2,
        good_preset="wifi",
        bad_preset="constrained",
        rng=np.random.default_rng(seed + 17),
    )


def slow_pi_rates(num_clients: int, seed: int) -> np.ndarray:
    """Compute rates of the asynchronous evaluation's Pi 4 cluster, a
    random 20% of it 3x slower (Table II, Fig. 3 c/d)."""
    cluster = make_heterogeneous_cluster(
        num_clients,
        ["pi4"],
        rng=np.random.default_rng(seed + 23),
        slow_fraction=0.2,
        slow_factor=3.0,
    )
    return compute_rates(cluster)


def format_panels(panels) -> str:
    """Figure panels (``PanelResult``) as text: a title, then one row
    set per labelled curve."""
    out = []
    for panel in panels:
        out.append(panel.title)
        for label, (x, y) in panel.series.items():
            out.append(format_series(f"  {label}", x, y, x_name=panel.x_name))
    return "\n".join(out)


def _federation_config(
    spec: FederationSpec,
    max_updates: int | None = None,
    max_sim_time_s: float | None = None,
    validation=None,
    downlink_retry=None,
    uplink_retry=None,
) -> FederationConfig:
    return FederationConfig(
        num_rounds=spec.scale.num_rounds,
        participation_rate=spec.participation_rate,
        eval_every=spec.scale.eval_every,
        seed=spec.seed + 2,
        local=LocalTrainingConfig(
            local_epochs=spec.scale.local_epochs,
            batch_size=spec.scale.batch_size,
            lr=spec.lr,
            momentum=spec.momentum,
        ),
        max_sim_time_s=(
            max_sim_time_s if max_sim_time_s is not None else spec.scale.max_sim_time_s
        ),
        max_updates=max_updates,
        validation=validation,
        downlink_retry=downlink_retry,
        uplink_retry=uplink_retry,
    )


def run_sync(
    spec: FederationSpec,
    strategy: SyncStrategy,
    network: NetworkConditions | None = None,
    device_flops: np.ndarray | None = None,
    chaos=None,
    validation=None,
    downlink_retry=None,
    uplink_retry=None,
    trace: EventTrace | None = None,
    snapshot_path=None,
    snapshot_every: int | None = None,
) -> RunResult:
    """Build a federation and run it synchronously.

    ``chaos`` is a :class:`~repro.sim.FaultPlan`, ``validation`` a
    :class:`~repro.fl.validation.ValidationConfig`, and
    ``downlink_retry``/``uplink_retry`` per-leg
    :class:`~repro.sim.RetryPolicy` overrides; ``snapshot_path`` makes
    the run crash-safe (see :mod:`repro.fl.snapshot`).  ``trace`` is an
    :class:`~repro.sim.EventTrace` with caller-attached sinks (e.g. a
    JSONL writer) to record the run's event stream.
    """
    fed = build_federation(spec)
    engine = SyncEngine(
        fed.server,
        fed.clients,
        strategy,
        _federation_config(
            spec,
            validation=validation,
            downlink_retry=downlink_retry,
            uplink_retry=uplink_retry,
        ),
        network=network,
        device_flops=device_flops,
        chaos=chaos,
        trace=trace,
        snapshot_path=snapshot_path,
        snapshot_every=snapshot_every,
    )
    return engine.run()


def run_async(
    spec: FederationSpec,
    strategy: AsyncStrategy,
    network: NetworkConditions | None = None,
    device_flops: np.ndarray | None = None,
    max_updates: int | None = None,
    max_sim_time_s: float | None = None,
    chaos=None,
    validation=None,
    downlink_retry=None,
    uplink_retry=None,
    trace: EventTrace | None = None,
    snapshot_path=None,
    snapshot_every: int | None = None,
) -> RunResult:
    """Build a federation and run it asynchronously.

    ``max_updates`` caps the number of delivered client updates;
    ``max_sim_time_s`` overrides the scale's simulated-time budget
    (the paper's Table II compares methods over an equal time budget).
    ``chaos``/``validation``/retry/``trace``/snapshot parameters
    mirror :func:`run_sync`.
    """
    fed = build_federation(spec)
    engine = AsyncEngine(
        fed.server,
        fed.clients,
        strategy,
        _federation_config(
            spec,
            max_updates=max_updates,
            max_sim_time_s=max_sim_time_s,
            validation=validation,
            downlink_retry=downlink_retry,
            uplink_retry=uplink_retry,
        ),
        network=network,
        device_flops=device_flops,
        chaos=chaos,
        trace=trace,
        snapshot_path=snapshot_path,
        snapshot_every=snapshot_every,
    )
    return engine.run()
