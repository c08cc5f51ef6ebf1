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

from typing import Mapping

from repro.experiments.presets import ExperimentScale
from repro.experiments.reporting import format_bytes, format_table
from repro.experiments.runner import PAPER_MODELS
from repro.experiments.spec import ASYNC_LINEUP, SYNC_LINEUP, RunSpec, run_grid
from repro.fl.metrics import RunResult

__all__ = ["table1_grid", "table2_grid", "run_equal_time", "render_table"]

_WORKLOADS = [(d, p) for d in ("mnist", "cifar100") for p in ("iid", "shard")]


def _grid(base: RunSpec, lineup: tuple[str, ...]) -> dict[tuple[str, str, str], RunSpec]:
    """``(method, dataset, distribution)`` -> spec: one run per method
    per workload, method by method."""
    return {
        (method, dataset, distribution): base.vary(
            strategy=method, dataset=dataset, model=PAPER_MODELS[dataset],
            distribution=distribution,
        )
        for method in lineup
        for dataset, distribution in _WORKLOADS
    }


def table1_grid(scale: ExperimentScale, seed: int) -> dict[tuple[str, str, str], RunSpec]:
    """Table I: synchronous methods."""
    return _grid(RunSpec.of(scale, seed, network="constrained"), SYNC_LINEUP)


def table2_grid(scale: ExperimentScale, seed: int) -> dict[tuple[str, str, str], RunSpec]:
    """Table II: asynchronous methods, each at FedAsync's update budget
    (``num_rounds * N/2``, the paper's 400).

    Only FedAsync's cells run as given: the simulated time each took
    becomes every other method's budget on that workload
    (:func:`run_equal_time`).  AdaFL's lower update frequency within the
    same time window is then entirely due to utility-gated halting, not
    a shorter run.
    """
    base = RunSpec.of(
        scale, seed, engine="async", network="constrained", devices="slow_pi",
        max_updates=scale.num_rounds * max(1, scale.num_clients // 2),
    )
    return _grid(base, ASYNC_LINEUP)


def run_equal_time(grid: Mapping[tuple[str, str, str], RunSpec]) -> dict[tuple, RunResult]:
    """Run a Table II grid (or part of one) under the equal-time protocol.

    Two grids in turn: the first method's cells as given, then every
    other cell with the simulated time the first method took on its
    workload as its budget.
    """
    lead = next(iter(grid))[0]
    results = dict(run_grid({k: s for k, s in grid.items() if k[0] == lead}))
    budget = {key[1:]: result.total_sim_time for key, result in results.items()}
    results.update(run_grid({
        key: spec.vary(
            max_updates=spec.federation.scale.num_rounds * spec.federation.scale.num_clients,
            max_sim_time_s=budget[key[1:]],  # max_updates is a runaway backstop only
        )
        for key, spec in grid.items() if key[0] != lead
    }))
    return results


def _ratio(ratio: float) -> str:
    """``105x``; sub-unity ratios (SCAFFOLD uploads delta + control
    variate: 0.5) keep one decimal instead of rounding to ``0x``."""
    return f"{ratio:.1f}x" if ratio < 1 else f"{ratio:.0f}x"


def render_table(
    results: Mapping[tuple[str, str, str], RunResult], title: str, scale: ExperimentScale
) -> str:
    """Format a table grid's results the way the paper prints Tables I /
    II: a row per method, its communication columns from its first
    workload's run, an accuracy pair per dataset."""
    ideal = scale.num_rounds * scale.num_clients
    datasets = list(dict.fromkeys(dataset for _, dataset, _ in results))
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
    for method in dict.fromkeys(method for method, _, _ in results):
        runs = {key[1:]: r for key, r in results.items() if key[0] == method}
        reference = next(iter(runs.values()))
        lo, hi = reference.gradient_size_range()
        rmax, rmin = reference.compression_ratio_range()
        cells = [
            reference.method,
            str(scale.num_clients),
            "adaptive" if method == "adafl" else "0.5",
            str(reference.total_uploads),
            f"-{100 * reference.update_cost_reduction(ideal):.2f}%",
            f"{format_bytes(lo)} - {format_bytes(hi)}" if lo != hi else format_bytes(lo),
            f"{_ratio(rmax)} - {_ratio(rmin)}" if rmax != rmin else _ratio(rmax),
        ]
        for dataset in datasets:
            iid, noniid = (runs[dataset, d].final_accuracy if (dataset, d) in runs
                           else float("nan") for d in ("iid", "shard"))
            cells.append(f"{100 * iid:.2f}% / {100 * noniid:.2f}%")
        body.append(cells)
    return format_table(headers, body, title=title)
