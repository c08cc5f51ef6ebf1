"""Declarative strategy sweeps: grid runs with a comparison artifact.

A sweep is a grid of **strategy × network profile × fault plan** run
on one federation workload, the head-to-head harness ROADMAP asks for:
every cell runs under identical conditions (same data, same seeds,
same link mix), per-cell metrics land in :class:`SweepRow`, and each
``(network, fault)`` cell is compared against its *reference* strategy
(FedAvg by default) — uplink-byte reduction and accuracy delta — so a
claim like "AdaGQ saves 77% uplink at no accuracy cost on the
constrained preset" is one artifact, not a notebook.

Entries are plain names resolved through three registries
(:data:`STRATEGY_FACTORIES`, :data:`NETWORK_PROFILES`,
:data:`FAULT_PLANS`) so a sweep is fully described by a
:class:`SweepConfig` — JSON-serialisable, CLI-friendly (``repro
sweep``), and deterministic: the artifact for a given config is
bit-identical across runs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.adafl import AdaFLSync
from repro.core.zoo import AdaGQQuantization, AdaptiveFederatedDropout
from repro.experiments.presets import ExperimentScale, get_scale
from repro.experiments.reporting import format_bytes, format_table
from repro.experiments.runner import FederationSpec, run_sync, straggler_network
from repro.fl.baselines import FedAvg, FedProx, Scaffold
from repro.fl.metrics import RunResult
from repro.fl.strategy import SyncStrategy
from repro.network.conditions import NetworkConditions
from repro.sim.faults import ClientCrashModel, FaultPlan

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "STRATEGY_FACTORIES",
    "NETWORK_PROFILES",
    "FAULT_PLANS",
    "run_sweep",
    "render_sweep",
]


# ----------------------------------------------------------------------
# Registries: names a config may use.  Factories take what they need to
# stay deterministic per (config, seed) — nothing reads global state.
# ----------------------------------------------------------------------
STRATEGY_FACTORIES: dict[str, Callable[[], SyncStrategy]] = {
    "fedavg": lambda: FedAvg(participation_rate=0.5),
    "fedprox": lambda: FedProx(participation_rate=0.5, mu=0.01),
    "scaffold": lambda: Scaffold(participation_rate=0.5),
    "adafl": lambda: AdaFLSync(),
    "afd": lambda: AdaptiveFederatedDropout(),
    "adagq": lambda: AdaGQQuantization(),
}

# name -> factory(num_clients, seed) -> NetworkConditions | None.
# "constrained" is the Tables I/II straggler mix (80% wifi, 20%
# constrained edge links) — the paper's problem regime.
NETWORK_PROFILES: dict[
    str, Callable[[int, int], NetworkConditions | None]
] = {
    "none": lambda n, seed: None,
    "wifi": lambda n, seed: NetworkConditions.uniform(n, "wifi"),
    "constrained": straggler_network,
}

# name -> factory(seed) -> FaultPlan | None.  "crashy" models flaky
# embedded devices: frequent crashes with quick restarts.
FAULT_PLANS: dict[str, Callable[[int], FaultPlan | None]] = {
    "none": lambda seed: None,
    "crashy": lambda seed: FaultPlan(
        ClientCrashModel(mtbf_s=400.0, mean_downtime_s=30.0)
    ),
}


@dataclass(frozen=True)
class SweepConfig:
    """One sweep, fully described (see module docstring).

    ``rounds`` / ``max_sim_time_s`` override the named scale's values
    without defining a new preset — sweeps usually want more rounds
    than the CI-oriented ``fast`` scale ships with.  ``reference`` is
    the strategy every other row in the same ``(network, fault)`` cell
    is compared against; it must be in ``strategies``.
    """

    strategies: tuple[str, ...] = ("fedavg", "afd", "adagq")
    networks: tuple[str, ...] = ("constrained",)
    faults: tuple[str, ...] = ("none",)
    scale: str = "fast"
    dataset: str = "mnist"
    model: str = "mnist_cnn"
    distribution: str = "iid"
    seed: int = 0
    reference: str = "fedavg"
    rounds: int | None = None
    max_sim_time_s: float | None = None
    eval_every: int | None = None

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("sweep needs at least one strategy")
        for name in self.strategies:
            if name not in STRATEGY_FACTORIES:
                known = ", ".join(sorted(STRATEGY_FACTORIES))
                raise ValueError(f"unknown strategy {name!r}; known: {known}")
        for name in self.networks:
            if name not in NETWORK_PROFILES:
                known = ", ".join(sorted(NETWORK_PROFILES))
                raise ValueError(f"unknown network profile {name!r}; known: {known}")
        for name in self.faults:
            if name not in FAULT_PLANS:
                known = ", ".join(sorted(FAULT_PLANS))
                raise ValueError(f"unknown fault plan {name!r}; known: {known}")
        if self.reference not in self.strategies:
            raise ValueError(
                f"reference {self.reference!r} must be one of the swept strategies"
            )
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds override must be positive")

    def resolved_scale(self) -> ExperimentScale:
        """The named scale with this config's overrides applied."""
        scale = get_scale(self.scale)
        overrides: dict = {}
        if self.rounds is not None:
            overrides["num_rounds"] = self.rounds
        if self.max_sim_time_s is not None:
            overrides["max_sim_time_s"] = self.max_sim_time_s
        if self.eval_every is not None:
            overrides["eval_every"] = self.eval_every
        return dataclasses.replace(scale, **overrides) if overrides else scale

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
        for key in ("strategies", "networks", "faults"):
            if key in raw:
                raw = {**raw, key: tuple(raw[key])}
        return cls(**raw)


@dataclass(frozen=True)
class SweepRow:
    """One (strategy, network, fault) cell's outcome."""

    strategy: str
    network: str
    fault: str
    final_accuracy: float
    total_bytes_up: int
    total_bytes_down: int
    total_uploads: int
    total_sim_time: float
    # vs. the reference strategy in the same (network, fault) cell;
    # zero for the reference row itself.
    uplink_reduction: float
    accuracy_delta: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SweepResult:
    """All rows of one sweep plus the config that produced them."""

    config: SweepConfig
    rows: list[SweepRow] = field(default_factory=list)

    def row(self, strategy: str, network: str, fault: str) -> SweepRow:
        for r in self.rows:
            if (r.strategy, r.network, r.fault) == (strategy, network, fault):
                return r
        raise KeyError(f"no sweep row for ({strategy}, {network}, {fault})")

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rows": [r.to_dict() for r in self.rows],
        }

    def save(self, path: "Path | str") -> None:
        """Write the comparison artifact as pretty-printed JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: "Path | str") -> "SweepResult":
        raw = json.loads(Path(path).read_text())
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepResult":
        return cls(
            config=SweepConfig.from_dict(raw["config"]),
            rows=[SweepRow(**row) for row in raw["rows"]],
        )


def _run_cell(
    config: SweepConfig,
    scale: ExperimentScale,
    strategy_name: str,
    network_name: str,
    fault_name: str,
) -> RunResult:
    spec = FederationSpec(
        dataset=config.dataset,
        model=config.model,
        distribution=config.distribution,
        scale=scale,
        seed=config.seed,
    )
    network = NETWORK_PROFILES[network_name](scale.num_clients, config.seed)
    chaos = FAULT_PLANS[fault_name](config.seed)
    strategy = STRATEGY_FACTORIES[strategy_name]()
    return run_sync(spec, strategy, network=network, chaos=chaos)


def run_sweep(
    config: SweepConfig,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the full grid; reference cells run first within each cell.

    ``progress`` (e.g. ``print``) is called with a one-line status per
    completed run.
    """
    scale = config.resolved_scale()
    result = SweepResult(config=config)
    ordered = [config.reference] + [
        s for s in config.strategies if s != config.reference
    ]
    for network_name in config.networks:
        for fault_name in config.faults:
            reference: RunResult | None = None
            for strategy_name in ordered:
                run = _run_cell(
                    config, scale, strategy_name, network_name, fault_name
                )
                if strategy_name == config.reference:
                    reference = run
                assert reference is not None
                ref_bytes = reference.total_bytes_up
                reduction = (
                    0.0
                    if ref_bytes <= 0
                    else 1.0 - run.total_bytes_up / ref_bytes
                )
                row = SweepRow(
                    strategy=strategy_name,
                    network=network_name,
                    fault=fault_name,
                    final_accuracy=run.final_accuracy,
                    total_bytes_up=run.total_bytes_up,
                    total_bytes_down=run.total_bytes_down,
                    total_uploads=run.total_uploads,
                    total_sim_time=run.total_sim_time,
                    uplink_reduction=reduction,
                    accuracy_delta=run.final_accuracy - reference.final_accuracy,
                )
                result.rows.append(row)
                if progress is not None:
                    progress(
                        f"[{network_name}/{fault_name}] {strategy_name}: "
                        f"acc={row.final_accuracy:.3f} "
                        f"up={format_bytes(row.total_bytes_up)} "
                        f"({row.uplink_reduction:+.1%} vs {config.reference})"
                    )
    return result


def render_sweep(result: SweepResult) -> str:
    """The sweep as a comparison table (reporting conventions)."""
    headers = [
        "Strategy",
        "Network",
        "Faults",
        "Accuracy",
        "Uplink",
        "Reduction",
        "Acc delta",
        "Uploads",
    ]
    body = []
    for row in result.rows:
        body.append(
            [
                row.strategy,
                row.network,
                row.fault,
                f"{100 * row.final_accuracy:.2f}%",
                format_bytes(row.total_bytes_up),
                f"{100 * row.uplink_reduction:+.1f}%",
                f"{100 * row.accuracy_delta:+.2f}pt",
                str(row.total_uploads),
            ]
        )
    title = (
        f"Strategy sweep — {result.config.dataset}/{result.config.model} "
        f"({result.config.distribution}, scale={result.config.scale}, "
        f"seed={result.config.seed}, reference={result.config.reference})"
    )
    return format_table(headers, body, title=title)
