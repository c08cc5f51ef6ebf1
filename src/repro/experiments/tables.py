"""Tables I and II — headline evaluation numbers (§V).

Each row reports, per method: participation, client-to-server update
frequency, communication-cost reduction against the all-clients ideal,
the range of transmitted gradient sizes, the achieved compression
ratio, and top-1 accuracy under IID and non-IID partitions of both
datasets (MNIST-like with the paper's CNN, CIFAR-100-like with the
VGG-style net).

Accounting conventions (documented in EXPERIMENTS.md):

* *Ideal updates* = ``num_rounds * num_clients`` (the paper's 800);
  "Cost Reduc." = 1 - updates/ideal, matching the paper's arithmetic
  (FedAvg at r_p=0.5 -> -50%; AdaFL's 233/800 -> -70.88%).
* Gradient sizes are honest wire bytes: a sparse update costs 8 bytes
  per retained coordinate (value + index), so our wire compression
  ratio is half the sparsity ratio the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.adafl import AdaFLAsync, AdaFLSync
from repro.experiments.comparison import default_adafl_config
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.reporting import format_bytes, format_table
from repro.experiments.runner import (
    FederationSpec,
    run_async,
    run_sync,
    slow_pi_rates,
    straggler_network,
)
from repro.fl.baselines import FedAdam, FedAsync, FedAvg, FedBuff, FedProx, Scaffold
from repro.fl.metrics import RunResult

__all__ = ["TableRow", "run_table1", "run_table2", "render_table"]

_DATASET_MODELS = {"mnist": "mnist_cnn", "cifar100": "vgg_mini"}


@dataclass
class TableRow:
    """One method's row in Table I or II."""

    method: str
    num_clients: int
    participation: str
    update_freq: int
    cost_reduction: float  # fraction of ideal updates saved
    byte_reduction: float  # fraction of ideal uplink bytes saved
    gradient_size: tuple[int, int]  # (min, max) wire bytes
    compression_ratio: tuple[float, float]  # (max, min)
    accuracies: dict[tuple[str, str], float] = field(default_factory=dict)
    runs: dict[tuple[str, str], RunResult] = field(default_factory=dict)

    def accuracy(self, dataset: str, distribution: str) -> float:
        return self.accuracies[(dataset, distribution)]


def _fill_comm_columns(row: TableRow, reference: RunResult, ideal_updates: int) -> None:
    row.update_freq = reference.total_uploads
    row.cost_reduction = reference.update_cost_reduction(ideal_updates)
    row.byte_reduction = reference.byte_cost_reduction(ideal_updates)
    row.gradient_size = reference.gradient_size_range()
    row.compression_ratio = reference.compression_ratio_range()


def run_table1(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    datasets: tuple[str, ...] = ("mnist", "cifar100"),
    distributions: tuple[str, ...] = ("iid", "shard"),
) -> list[TableRow]:
    """Table I: synchronous methods."""
    network = straggler_network(scale.num_clients, seed)
    ideal = scale.num_rounds * scale.num_clients

    def make_strategies():
        return [
            ("fedavg", "0.5", lambda: FedAvg(participation_rate=0.5)),
            ("fedadam", "0.5", lambda: FedAdam(participation_rate=0.5)),
            ("fedprox", "0.5", lambda: FedProx(participation_rate=0.5, mu=0.01)),
            ("scaffold", "0.5", lambda: Scaffold(participation_rate=0.5)),
            ("adafl", "adaptive", lambda: AdaFLSync(default_adafl_config(scale))),
        ]

    rows = []
    for name, participation, factory in make_strategies():
        row = TableRow(
            method=name,
            num_clients=scale.num_clients,
            participation=participation,
            update_freq=0,
            cost_reduction=0.0,
            byte_reduction=0.0,
            gradient_size=(0, 0),
            compression_ratio=(1.0, 1.0),
        )
        reference: RunResult | None = None
        for dataset in datasets:
            for distribution in distributions:
                spec = FederationSpec(
                    dataset=dataset,
                    model=_DATASET_MODELS[dataset],
                    distribution=distribution,
                    scale=scale,
                    seed=seed,
                )
                result = run_sync(spec, factory(), network=network)
                row.accuracies[(dataset, distribution)] = result.final_accuracy
                row.runs[(dataset, distribution)] = result
                if reference is None:
                    reference = result  # comm columns from the first workload
        assert reference is not None
        _fill_comm_columns(row, reference, ideal)
        rows.append(row)
    return rows


def run_table2(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    datasets: tuple[str, ...] = ("mnist", "cifar100"),
    distributions: tuple[str, ...] = ("iid", "shard"),
) -> list[TableRow]:
    """Table II: asynchronous methods.

    Equal-time protocol: FedAsync runs to its fixed update budget
    (``num_rounds * N/2``, the paper's 400) and the simulated time it
    took becomes the budget for every other method on that workload.
    AdaFL's lower update frequency within the same time window is then
    entirely due to utility-gated halting, not a shorter run.
    """
    network = straggler_network(scale.num_clients, seed)
    ideal = scale.num_rounds * scale.num_clients
    baseline_updates = scale.num_rounds * max(1, scale.num_clients // 2)
    rates = slow_pi_rates(scale.num_clients, seed)

    # Pass 1: FedAsync sets the per-workload time budget.
    time_budget: dict[tuple[str, str], float] = {}
    strategies = [
        ("fedasync", "0.5", lambda: FedAsync()),
        ("fedbuff", "0.5", lambda: FedBuff(buffer_size=3)),
        (
            "adafl-async",
            "adaptive",
            lambda: AdaFLAsync(default_adafl_config(scale, async_mode=True), network=network),
        ),
    ]
    rows = []
    for name, participation, factory in strategies:
        row = TableRow(
            method=name,
            num_clients=scale.num_clients,
            participation=participation,
            update_freq=0,
            cost_reduction=0.0,
            byte_reduction=0.0,
            gradient_size=(0, 0),
            compression_ratio=(1.0, 1.0),
        )
        reference: RunResult | None = None
        for dataset in datasets:
            for distribution in distributions:
                spec = FederationSpec(
                    dataset=dataset,
                    model=_DATASET_MODELS[dataset],
                    distribution=distribution,
                    scale=scale,
                    seed=seed,
                )
                workload = (dataset, distribution)
                if name == "fedasync":
                    result = run_async(
                        spec,
                        factory(),
                        network=network,
                        device_flops=rates,
                        max_updates=baseline_updates,
                    )
                    time_budget[workload] = result.total_sim_time
                else:
                    result = run_async(
                        spec,
                        factory(),
                        network=network,
                        device_flops=rates,
                        max_updates=ideal,  # runaway backstop only
                        max_sim_time_s=time_budget[workload],
                    )
                row.accuracies[workload] = result.final_accuracy
                row.runs[workload] = result
                if reference is None:
                    reference = result
        assert reference is not None
        _fill_comm_columns(row, reference, ideal)
        rows.append(row)
    return rows


def render_table(rows: list[TableRow], title: str, datasets: tuple[str, ...] = ("mnist", "cifar100")) -> str:
    """Format rows the way the paper prints Tables I / II."""
    headers = [
        "Method",
        "#Clients",
        "Particip.",
        "Update Freq.",
        "Cost Reduc.",
        "Gradient Size",
        "Compress. Ratio",
    ]
    for dataset in datasets:
        headers.append(f"{dataset} (IID/non-IID)")
    body = []
    for row in rows:
        lo, hi = row.gradient_size
        rmax, rmin = row.compression_ratio
        cells = [
            row.method,
            str(row.num_clients),
            row.participation,
            str(row.update_freq),
            f"-{100 * row.cost_reduction:.2f}%",
            f"{format_bytes(lo)} - {format_bytes(hi)}" if lo != hi else format_bytes(lo),
            f"{rmax:.0f}x - {rmin:.0f}x" if rmax != rmin else f"{rmax:.0f}x",
        ]
        for dataset in datasets:
            iid = row.accuracies.get((dataset, "iid"), float("nan"))
            noniid = row.accuracies.get((dataset, "shard"), float("nan"))
            cells.append(f"{100 * iid:.2f}% / {100 * noniid:.2f}%")
        body.append(cells)
    return format_table(headers, body, title=title)
