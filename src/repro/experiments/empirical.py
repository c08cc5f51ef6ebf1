"""Figure 1 — the empirical study of FL network resiliency (§III-B).

Twelve panels:

* (a)–(h) synchronous FedAvg under 0/10/20/50% stragglers, in two
  failure modes (*dropout*: the straggler reaches the server only
  every other round; *data loss*: the straggler's upload is lost in
  transit with probability 1/2), for two workloads (CNN on the
  MNIST-like set, residual CNN on the CIFAR-10-like set) and two data
  distributions (IID, non-IID shards).
* (i)–(l) asynchronous FedAsync where the straggler fraction is made
  3x slower (staleness) — accuracy against simulated time, compared
  with the equivalent dropout runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embedded.cluster import compute_rates, make_heterogeneous_cluster
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.runner import FederationSpec, run_async, run_sync
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.metrics import RunResult
from repro.sim.faults import (
    FaultPlan,
    StragglerDropoutModel,
    UploadLossModel,
    straggler_ids,
)

__all__ = ["PanelResult", "run_fig1_sync_panel", "run_fig1_async_panel", "run_fig1",
           "STRAGGLER_FRACTIONS"]

STRAGGLER_FRACTIONS = (0.0, 0.1, 0.2, 0.5)

_WORKLOADS = {
    "mnist": ("mnist", "mnist_cnn"),
    "cifar10": ("cifar10", "resnet_mini"),
}


@dataclass
class PanelResult:
    """One figure panel: a family of labelled curves."""

    panel_id: str
    title: str
    x_name: str
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    runs: dict[str, RunResult] = field(default_factory=dict)

    def final_accuracies(self) -> dict[str, float]:
        """Label -> last point of each curve."""
        return {
            label: float(y[-1]) if y.size else float("nan")
            for label, (_, y) in self.series.items()
        }


def run_fig1_sync_panel(
    workload: str = "mnist",
    distribution: str = "iid",
    mode: str = "dropout",
    fractions: tuple[float, ...] = STRAGGLER_FRACTIONS,
    scale: ExperimentScale = BENCH,
    seed: int = 0,
) -> PanelResult:
    """One synchronous panel of Figure 1."""
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if mode not in ("dropout", "dataloss"):
        raise ValueError("mode must be 'dropout' or 'dataloss'")
    dataset, model = _WORKLOADS[workload]
    panel = PanelResult(
        panel_id=f"fig1-sync-{workload}-{distribution}-{mode}",
        title=f"Sync FedAvg, {workload}, {distribution}, {mode}",
        x_name="round",
    )
    for fraction in fractions:
        spec = FederationSpec(
            dataset=dataset,
            model=model,
            distribution=distribution,
            scale=scale,
            seed=seed,
            participation_rate=1.0,  # the study isolates faults, not sampling
        )
        rng = np.random.default_rng(seed + int(fraction * 100))
        # At fraction 0 the model covers nobody and never fires.
        stragglers = straggler_ids(scale.num_clients, fraction, rng)
        fault = StragglerDropoutModel if mode == "dropout" else UploadLossModel
        chaos = FaultPlan(fault(client_ids=stragglers))
        result = run_sync(spec, FedAvg(participation_rate=1.0), chaos=chaos)
        label = f"{int(fraction * 100)}%"
        panel.series[label] = result.accuracy_curve()
        panel.runs[label] = result
    return panel


def run_fig1_async_panel(
    workload: str = "mnist",
    distribution: str = "iid",
    fractions: tuple[float, ...] = STRAGGLER_FRACTIONS,
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    slow_factor: float = 3.0,
) -> PanelResult:
    """One asynchronous (staleness) panel of Figure 1.

    The straggler fraction runs on devices ``slow_factor`` slower, so
    their updates arrive stale; accuracy is plotted against simulated
    time.
    """
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    dataset, model = _WORKLOADS[workload]
    panel = PanelResult(
        panel_id=f"fig1-async-{workload}-{distribution}-staleness",
        title=f"Async FedAsync, {workload}, {distribution}, {slow_factor}x-slow stragglers",
        x_name="time_s",
    )
    # Half the sync ideal is plenty to expose the staleness gap (the
    # wall-clock ratio is budget-independent) at half the bench cost.
    max_updates = scale.num_rounds * scale.num_clients // 2
    for fraction in fractions:
        spec = FederationSpec(
            dataset=dataset,
            model=model,
            distribution=distribution,
            scale=scale,
            seed=seed,
        )
        cluster = make_heterogeneous_cluster(
            scale.num_clients,
            ["pi4"],
            rng=np.random.default_rng(seed + int(fraction * 100)),
            slow_fraction=fraction,
            slow_factor=slow_factor,
        )
        result = run_async(
            spec,
            FedAsync(),
            device_flops=compute_rates(cluster),
            max_updates=max_updates,
        )
        label = f"{int(fraction * 100)}%"
        panel.series[label] = result.time_accuracy_curve()
        panel.runs[label] = result
    return panel


def run_fig1(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    workloads: tuple[str, ...] = ("mnist", "cifar10"),
) -> list[PanelResult]:
    """All panels of Figure 1 (8 sync + 4 async for the default workloads)."""
    panels = []
    for workload in workloads:
        for distribution in ("iid", "shard"):
            for mode in ("dropout", "dataloss"):
                panels.append(
                    run_fig1_sync_panel(workload, distribution, mode, scale=scale, seed=seed)
                )
    for workload in workloads:
        for distribution in ("iid", "shard"):
            panels.append(
                run_fig1_async_panel(workload, distribution, scale=scale, seed=seed)
            )
    return panels
