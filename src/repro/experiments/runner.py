"""Shared experiment plumbing: build a federation from a spec and run it.

Everything that runs a federation ends in :func:`open_engine` — the
figure/table grids through :mod:`repro.experiments.spec`, callers that
hold strategy *objects* through :func:`run_sync` / :func:`run_async`,
the socket runs through ``socket_session`` — so dataset synthesis,
partitioning, model construction, engine wiring, the evaluation's
straggler network and slow-Pi cluster, and the figure-panel printer
stay in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

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

__all__ = ["DatasetProfile", "DATASET_PROFILES", "MODELS", "DISTRIBUTIONS", "PAPER_MODELS",
           "check_known", "FederationSpec", "Federation", "build_federation", "Session",
           "open_engine", "run_sync", "run_async", "straggler_network", "slow_pi_rates",
           "format_panels"]


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


# name -> builder(image shape, classes, scale, seed)
_MODEL_BUILDERS: dict[str, Callable[..., Sequential]] = {
    "mnist_cnn": lambda shape, classes, scale, seed: build_mnist_cnn(
        shape, classes, channels=scale.cnn_channels, hidden=scale.cnn_hidden, seed=seed
    ),
    "mlp": lambda shape, classes, scale, seed: build_mlp(
        shape, classes, hidden=(scale.cnn_hidden,), seed=seed
    ),
    "resnet_mini": lambda shape, classes, scale, seed: build_resnet_mini(
        shape, classes, width=scale.cnn_channels[0], num_blocks=1, seed=seed
    ),
    "vgg_mini": lambda shape, classes, scale, seed: build_vgg_mini(
        shape, classes, widths=scale.cnn_channels, hidden=scale.cnn_hidden, seed=seed
    ),
}
MODELS = tuple(_MODEL_BUILDERS)
DISTRIBUTIONS = ("iid", "shard", "dirichlet", "label_skew", "quantity_skew")  # partition_indices'


def check_known(what: str, value, known) -> None:
    """``ValueError`` naming the known ones unless ``value`` is among them."""
    if value not in known:
        raise ValueError(f"unknown {what} {value!r}; known: {', '.join(known)}")


# The model the paper trains on each dataset (Fig. 1, Tables I/II).
PAPER_MODELS = {"mnist": "mnist_cnn", "cifar10": "resnet_mini", "cifar100": "vgg_mini"}


@dataclass(frozen=True)
class FederationSpec:
    """A complete description of one federated run's fixed inputs."""

    dataset: str = "mnist"
    model: str = "mnist_cnn"
    distribution: str = "iid"  # one of DISTRIBUTIONS
    scale: ExperimentScale = field(default_factory=lambda: BENCH)
    seed: int = 0
    lr: float = 0.02
    momentum: float = 0.0
    participation_rate: float = 0.5

    def __post_init__(self) -> None:
        check_known("dataset", self.dataset, sorted(DATASET_PROFILES))
        check_known("model", self.model, MODELS)
        check_known("distribution", self.distribution, DISTRIBUTIONS)


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
    shape = (profile.channels, spec.scale.image_size, spec.scale.image_size)
    model_seed = spec.seed + 7919  # decouple init from data sampling
    return lambda: _MODEL_BUILDERS[spec.model](shape, profile.num_classes, spec.scale, model_seed)


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


def straggler_network(num_clients: int, seed: int, seed_offset: int = 17) -> NetworkConditions:
    """The evaluation's fixed-bandwidth network (Tables I/II, Fig. 3, the
    ablation, the ``constrained`` network profile): 80% wifi links and a
    random 20% minority on constrained edge links.  The sensitivity and
    scalability studies draw their minority at other ``seed_offset``s."""
    return NetworkConditions.with_stragglers(
        num_clients, straggler_fraction=0.2, good_preset="wifi", bad_preset="constrained",
        rng=np.random.default_rng(seed + seed_offset),
    )


def slow_pi_rates(
    num_clients: int, seed: int,
    slow_fraction: float = 0.2, slow_factor: float = 3.0, seed_offset: int = 23,
) -> np.ndarray:
    """Compute rates of the asynchronous evaluation's Pi 4 cluster, a
    random 20% of it 3x slower (Table II, Fig. 3 c/d; Fig. 1 i-l vary
    the fraction)."""
    cluster = make_heterogeneous_cluster(
        num_clients, ["pi4"], rng=np.random.default_rng(seed + seed_offset),
        slow_fraction=slow_fraction, slow_factor=slow_factor,
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
    **overrides,
) -> FederationConfig:
    """The spec's engine settings; ``overrides`` are further
    :class:`FederationConfig` fields (validation, retry policies, quorum)."""
    scale = spec.scale
    return FederationConfig(
        num_rounds=scale.num_rounds,
        participation_rate=spec.participation_rate,
        eval_every=scale.eval_every,
        seed=spec.seed + 2,
        local=LocalTrainingConfig(
            local_epochs=scale.local_epochs, batch_size=scale.batch_size,
            lr=spec.lr, momentum=spec.momentum,
        ),
        max_sim_time_s=scale.max_sim_time_s if max_sim_time_s is None else max_sim_time_s,
        max_updates=max_updates,
        **overrides,
    )


@dataclass
class Session:
    """A live run: the engine and the federation under it.

    Over sockets also the transport, worker processes and chaos proxy —
    exposed (rather than hidden inside a run function) so chaos tests
    can reach in — kill a worker process mid-round, read proxy fault
    counters — while the run is in flight.
    """

    engine: SyncEngine | AsyncEngine
    federation: Federation
    transport: Any = None
    procs: list = field(default_factory=list)
    proxy: Any = None

    def run(self) -> RunResult:
        """Drive the engine to completion (workers stay up throughout)."""
        return self.engine.run()


_ENGINES = {"sync": SyncEngine, "async": AsyncEngine}


def open_engine(
    spec: FederationSpec,
    strategy: SyncStrategy | AsyncStrategy,
    mode: str,
    config: FederationConfig,
    **engine_kwargs,
) -> Session:
    """Build the federation and wire the ``mode`` engine over it.

    The one place an engine class is chosen.  ``engine_kwargs`` go to
    the engine (``network``, ``device_flops``, ``chaos``, ``trace``,
    snapshot settings); with a ``transport`` the clients live behind it
    and the engine gets none of its own.
    """
    fed = build_federation(spec)
    transport = engine_kwargs.get("transport")
    clients = None if transport is not None else fed.clients
    engine = _ENGINES[mode](fed.server, clients, strategy, config, **engine_kwargs)
    return Session(engine=engine, federation=fed, transport=transport)


_CONFIG_ARGS = ("max_updates", "max_sim_time_s", "validation", "downlink_retry", "uplink_retry")


def _run(mode: str, spec: FederationSpec, strategy, **kwargs) -> RunResult:
    config = _federation_config(spec, **{k: kwargs.pop(k) for k in _CONFIG_ARGS if k in kwargs})
    return open_engine(spec, strategy, mode, config, **kwargs).run()


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
    return _run("sync", **locals())


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
    return _run("async", **locals())
