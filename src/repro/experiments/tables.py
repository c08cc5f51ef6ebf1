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

from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.reporting import format_bytes, format_table
from repro.experiments.runner import PAPER_MODELS
from repro.experiments.spec import ASYNC_LINEUP, SYNC_LINEUP, RunSpec, run
from repro.fl.metrics import RunResult

__all__ = ["TableRow", "run_table1", "run_table2", "render_table"]


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


def _run_table(
    base: RunSpec, lineup: tuple[str, ...], datasets: tuple[str, ...],
    distributions: tuple[str, ...],
) -> list[TableRow]:
    """One row per method of ``lineup``, one run per workload.

    Asynchronous tables follow the equal-time protocol: the first
    method runs to ``base``'s update budget and the simulated time it
    took becomes the budget for every other method on that workload.
    """
    scale = base.federation.scale
    ideal = scale.num_rounds * scale.num_clients
    time_budget: dict[tuple[str, str], float] = {}
    rows = []
    for method in lineup:
        runs: dict[tuple[str, str], RunResult] = {}
        for dataset in datasets:
            for distribution in distributions:
                workload = (dataset, distribution)
                spec = base.vary(
                    strategy=method,
                    dataset=dataset,
                    model=PAPER_MODELS[dataset],
                    distribution=distribution,
                )
                if workload in time_budget:
                    spec = spec.vary(
                        max_updates=ideal,  # runaway backstop only
                        max_sim_time_s=time_budget[workload],
                    )
                runs[workload] = run(spec)
                if base.engine == "async" and method == lineup[0]:
                    time_budget[workload] = runs[workload].total_sim_time
        reference = next(iter(runs.values()))  # comm columns from the first workload
        rows.append(
            TableRow(
                method=reference.method,
                num_clients=scale.num_clients,
                participation="adaptive" if method == "adafl" else "0.5",
                update_freq=reference.total_uploads,
                cost_reduction=reference.update_cost_reduction(ideal),
                byte_reduction=reference.byte_cost_reduction(ideal),
                gradient_size=reference.gradient_size_range(),
                compression_ratio=reference.compression_ratio_range(),
                accuracies={w: r.final_accuracy for w, r in runs.items()},
                runs=runs,
            )
        )
    return rows


def run_table1(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    datasets: tuple[str, ...] = ("mnist", "cifar100"),
    distributions: tuple[str, ...] = ("iid", "shard"),
) -> list[TableRow]:
    """Table I: synchronous methods."""
    base = RunSpec.of(scale, seed, network="constrained")
    return _run_table(base, SYNC_LINEUP, datasets, distributions)


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
    base = RunSpec.of(
        scale, seed, engine="async", network="constrained", devices="slow_pi",
        max_updates=scale.num_rounds * max(1, scale.num_clients // 2),
    )
    return _run_table(base, ASYNC_LINEUP, datasets, distributions)


def _ratio(ratio: float) -> str:
    """``105x``; sub-unity ratios (SCAFFOLD uploads delta + control
    variate: 0.5) keep one decimal instead of rounding to ``0x``."""
    return f"{ratio:.1f}x" if ratio < 1 else f"{ratio:.0f}x"


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
            f"{_ratio(rmax)} - {_ratio(rmin)}" if rmax != rmin else _ratio(rmax),
        ]
        for dataset in datasets:
            iid = row.accuracies.get((dataset, "iid"), float("nan"))
            noniid = row.accuracies.get((dataset, "shard"), float("nan"))
            cells.append(f"{100 * iid:.2f}% / {100 * noniid:.2f}%")
        body.append(cells)
    return format_table(headers, body, title=title)
