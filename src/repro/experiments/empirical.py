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

from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.runner import PAPER_MODELS, check_known
from repro.experiments.spec import Named, RunSpec, run
from repro.fl.metrics import RunResult

__all__ = ["PanelResult", "run_panel", "run_fig1_sync_panel", "run_fig1_async_panel", "run_fig1",
           "STRAGGLER_FRACTIONS"]

STRAGGLER_FRACTIONS = (0.0, 0.1, 0.2, 0.5)


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


def run_panel(
    panel_id: str, title: str, x_name: str, specs: list[tuple[str | None, RunSpec]]
) -> PanelResult:
    """Run ``(label, spec)`` pairs into one panel: a curve per label
    (``None``: the run's method name), against rounds or —
    ``x_name="time_s"`` — simulated time."""
    panel = PanelResult(panel_id=panel_id, title=title, x_name=x_name)
    for label, spec in specs:
        result = run(spec)
        label = label or result.method
        curve = result.accuracy_curve if x_name == "round" else result.time_accuracy_curve
        panel.series[label] = curve()
        panel.runs[label] = result
    return panel


def _workload_spec(workload: str, distribution: str, scale, seed: int, **changes) -> RunSpec:
    check_known("workload", workload, PAPER_MODELS)
    return RunSpec.of(
        scale, seed, dataset=workload, model=PAPER_MODELS[workload],
        distribution=distribution, **changes,
    )


def run_fig1_sync_panel(
    workload: str = "mnist",
    distribution: str = "iid",
    mode: str = "dropout",
    fractions: tuple[float, ...] = STRAGGLER_FRACTIONS,
    scale: ExperimentScale = BENCH,
    seed: int = 0,
) -> PanelResult:
    """One synchronous panel of Figure 1.

    ``mode`` is the :data:`~repro.experiments.spec.FAULTS` row the
    straggler fraction suffers: ``dropout`` or ``dataloss``.
    """
    if mode not in ("dropout", "dataloss"):
        raise ValueError("mode must be 'dropout' or 'dataloss'")
    base = _workload_spec(
        workload, distribution, scale, seed,
        participation_rate=1.0,  # the study isolates faults, not sampling
        strategy=Named("fedavg", {"participation_rate": 1.0}),
    )
    return run_panel(
        f"fig1-sync-{workload}-{distribution}-{mode}",
        f"Sync FedAvg, {workload}, {distribution}, {mode}",
        "round",
        [(f"{int(f * 100)}%", base.vary(faults=(Named(mode, {"fraction": f}),)))
         for f in fractions],
    )


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
    # Half the sync ideal is plenty to expose the staleness gap (the
    # wall-clock ratio is budget-independent) at half the bench cost.
    base = _workload_spec(
        workload, distribution, scale, seed, engine="async", strategy="fedasync",
        max_updates=scale.num_rounds * scale.num_clients // 2,
    )
    return run_panel(
        f"fig1-async-{workload}-{distribution}-staleness",
        f"Async FedAsync, {workload}, {distribution}, {slow_factor}x-slow stragglers",
        "time_s",
        [(f"{int(f * 100)}%", base.vary(devices=Named("slow_pi", {
            "slow_fraction": f, "slow_factor": slow_factor, "seed_offset": int(f * 100)})))
         for f in fractions],
    )


def run_fig1(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    workloads: tuple[str, ...] = ("mnist", "cifar10"),
) -> list[PanelResult]:
    """All panels of Figure 1 (8 sync + 4 async for the default workloads)."""
    cells = [(w, d) for w in workloads for d in ("iid", "shard")]
    return [
        run_fig1_sync_panel(w, d, mode, scale=scale, seed=seed)
        for w, d in cells
        for mode in ("dropout", "dataloss")
    ] + [run_fig1_async_panel(w, d, scale=scale, seed=seed) for w, d in cells]
