"""Figure 3 — AdaFL vs the state of the art (§V, "Effectiveness").

Four panels of CNN-on-MNIST accuracy curves:

* (a) synchronous, IID — FedAvg / FedAdam / FedProx / SCAFFOLD / AdaFL
  against communication rounds;
* (b) synchronous, non-IID — same methods;
* (c) asynchronous, IID — FedAsync / FedBuff / AdaFL against simulated
  time;
* (d) asynchronous, non-IID — same methods.

Baselines run at the paper's fixed participation rate ``r_p = 0.5``;
AdaFL selects adaptively with ``k <= 5``.
"""

from __future__ import annotations

from repro.experiments.empirical import PanelResult, run_panel
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.spec import ASYNC_LINEUP, SYNC_LINEUP, RunSpec, default_adafl_config

__all__ = ["default_adafl_config", "run_fig3_sync_panel", "run_fig3_async_panel", "run_fig3"]


def run_fig3_sync_panel(
    distribution: str = "iid",
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    dataset: str = "mnist",
    model: str = "mnist_cnn",
) -> PanelResult:
    """One synchronous Figure 3 panel (accuracy vs round)."""
    base = RunSpec.of(
        scale, seed, dataset=dataset, model=model, distribution=distribution,
        network="constrained",
    )
    return run_panel(
        f"fig3-sync-{distribution}", f"Sync comparison, {dataset}, {distribution}", "round",
        [(None, base.vary(strategy=method)) for method in SYNC_LINEUP],
    )


def run_fig3_async_panel(
    distribution: str = "iid",
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    dataset: str = "mnist",
    model: str = "mnist_cnn",
) -> PanelResult:
    """One asynchronous Figure 3 panel (accuracy vs simulated time)."""
    base = RunSpec.of(
        scale, seed, dataset=dataset, model=model, distribution=distribution,
        engine="async", network="constrained", devices="slow_pi",
        max_updates=scale.num_rounds * max(1, scale.num_clients // 2),
    )
    return run_panel(
        f"fig3-async-{distribution}", f"Async comparison, {dataset}, {distribution}", "time_s",
        [(None, base.vary(strategy=method)) for method in ASYNC_LINEUP],
    )


def run_fig3(scale: ExperimentScale = BENCH, seed: int = 0) -> list[PanelResult]:
    """All four Figure 3 panels."""
    return [
        run_fig3_sync_panel("iid", scale, seed),
        run_fig3_sync_panel("shard", scale, seed),
        run_fig3_async_panel("iid", scale, seed),
        run_fig3_async_panel("shard", scale, seed),
    ]
