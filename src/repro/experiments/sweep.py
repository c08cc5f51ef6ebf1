"""Declarative strategy sweeps: grid runs with a comparison artifact.

A sweep is a grid of **strategy × network profile × fault plan** run
on one federation workload, the head-to-head harness ROADMAP asks for:
every cell runs under identical conditions (same data, same seeds,
same link mix), per-cell metrics land in :class:`SweepRow`, and each
``(network, fault)`` cell is compared against its *reference* strategy
(FedAvg by default) — uplink-byte reduction and accuracy delta — so a
claim like "AdaGQ saves 77% uplink at no accuracy cost on the
constrained preset" is one artifact, not a notebook.

Entries are plain row names of :mod:`repro.experiments.spec`'s axis
tables — a :class:`SweepConfig` expands to one
:class:`~repro.experiments.spec.RunSpec` per cell — so a sweep is
JSON-serialisable, CLI-friendly (``repro sweep``), and deterministic:
the artifact for a given config is bit-identical across runs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.experiments.presets import ExperimentScale, get_scale
from repro.experiments.reporting import format_bytes, format_table
from repro.experiments.spec import RunSpec, run
from repro.fl.metrics import RunResult

__all__ = ["SweepConfig", "SweepRow", "SweepResult", "run_sweep", "render_sweep"]


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
        if self.reference not in self.strategies:
            raise ValueError(
                f"reference {self.reference!r} must be one of the swept strategies"
            )
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds override must be positive")
        self.specs()  # every name is checked against the axis tables here

    def specs(self) -> dict[tuple[str, str, str], RunSpec]:
        """The grid: one spec per ``(strategy, network, fault)`` cell, in
        run order (the reference first within each ``(network, fault)``)."""
        base = RunSpec.of(
            self.resolved_scale(), self.seed, dataset=self.dataset, model=self.model,
            distribution=self.distribution,
        )
        ordered = [self.reference] + [s for s in self.strategies if s != self.reference]
        return {
            (strategy, network, fault): base.vary(
                strategy=strategy, network=network, faults=(fault,)
            )
            for network in self.networks
            for fault in self.faults
            for strategy in ordered
        }

    def resolved_scale(self) -> ExperimentScale:
        """The named scale with this config's overrides applied."""
        overrides = {"num_rounds": self.rounds, "max_sim_time_s": self.max_sim_time_s,
                     "eval_every": self.eval_every}
        return dataclasses.replace(
            get_scale(self.scale), **{k: v for k, v in overrides.items() if v is not None}
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
        axes = {k: tuple(raw[k]) for k in ("strategies", "networks", "faults") if k in raw}
        return cls(**{**raw, **axes})


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


def run_sweep(
    config: SweepConfig,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the full grid; reference cells run first within each cell.

    ``progress`` (e.g. ``print``) is called with a one-line status per
    completed run.
    """
    result = SweepResult(config=config)
    reference: RunResult | None = None
    for (strategy_name, network_name, fault_name), spec in config.specs().items():
        cell = run(spec)
        if strategy_name == config.reference:
            reference = cell
        assert reference is not None
        ref_bytes = reference.total_bytes_up
        row = SweepRow(
            strategy=strategy_name,
            network=network_name,
            fault=fault_name,
            final_accuracy=cell.final_accuracy,
            total_bytes_up=cell.total_bytes_up,
            total_bytes_down=cell.total_bytes_down,
            total_uploads=cell.total_uploads,
            total_sim_time=cell.total_sim_time,
            uplink_reduction=0.0 if ref_bytes <= 0 else 1.0 - cell.total_bytes_up / ref_bytes,
            accuracy_delta=cell.final_accuracy - reference.final_accuracy,
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
