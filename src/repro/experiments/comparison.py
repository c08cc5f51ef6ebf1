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

from repro.core.adafl import AdaFLAsync, AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.experiments.empirical import PanelResult
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.runner import (
    FederationSpec,
    run_async,
    run_sync,
    slow_pi_rates,
    straggler_network,
)
from repro.fl.baselines import FedAdam, FedAsync, FedAvg, FedBuff, FedProx, Scaffold

__all__ = [
    "default_adafl_config",
    "run_fig3_sync_panel",
    "run_fig3_async_panel",
    "run_fig3",
]


def default_adafl_config(scale: ExperimentScale, async_mode: bool = False) -> AdaFLConfig:
    """AdaFL settings matched to the paper's evaluation (k<=5, warm-up).

    Synchronous runs use the relative threshold (filter the lowest 60%
    of utility scores each round), which keeps the adaptive
    participation rate below the baselines' fixed 0.5 while preserving
    accuracy parity at bench scale.  Asynchronous runs use an absolute
    threshold — halting is a local per-client decision with no round
    population to take a quantile over.
    """
    warmup = max(2, scale.num_rounds // 10)
    policy = AdaptiveCompressionPolicy(
        min_ratio=4.0,
        max_ratio=105.0 if async_mode else 210.0,
        warmup_rounds=warmup,
        warmup_ratio=4.0,
    )
    if async_mode:
        return AdaFLConfig(
            k_max=max(1, scale.num_clients // 2),
            tau=0.62,
            tau_mode="absolute",
            score_smoothing=0.5,
            policy=policy,
        )
    return AdaFLConfig(
        k_max=max(1, scale.num_clients // 2),
        tau=0.6,
        tau_mode="relative",
        score_smoothing=0.5,
        rotation_bonus=0.15,
        policy=policy,
    )


def run_fig3_sync_panel(
    distribution: str = "iid",
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    dataset: str = "mnist",
    model: str = "mnist_cnn",
) -> PanelResult:
    """One synchronous Figure 3 panel (accuracy vs round)."""
    panel = PanelResult(
        panel_id=f"fig3-sync-{distribution}",
        title=f"Sync comparison, {dataset}, {distribution}",
        x_name="round",
    )
    network = straggler_network(scale.num_clients, seed)
    methods = [
        FedAvg(participation_rate=0.5),
        FedAdam(participation_rate=0.5),
        FedProx(participation_rate=0.5, mu=0.01),
        Scaffold(participation_rate=0.5),
        AdaFLSync(default_adafl_config(scale)),
    ]
    for strategy in methods:
        spec = FederationSpec(
            dataset=dataset,
            model=model,
            distribution=distribution,
            scale=scale,
            seed=seed,
        )
        result = run_sync(spec, strategy, network=network)
        panel.series[strategy.name] = result.accuracy_curve()
        panel.runs[strategy.name] = result
    return panel


def run_fig3_async_panel(
    distribution: str = "iid",
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    dataset: str = "mnist",
    model: str = "mnist_cnn",
) -> PanelResult:
    """One asynchronous Figure 3 panel (accuracy vs simulated time)."""
    panel = PanelResult(
        panel_id=f"fig3-async-{distribution}",
        title=f"Async comparison, {dataset}, {distribution}",
        x_name="time_s",
    )
    network = straggler_network(scale.num_clients, seed)
    rates = slow_pi_rates(scale.num_clients, seed)
    max_updates = scale.num_rounds * max(1, scale.num_clients // 2)
    methods = [
        FedAsync(),
        FedBuff(buffer_size=3),
        AdaFLAsync(default_adafl_config(scale, async_mode=True), network=network),
    ]
    for strategy in methods:
        spec = FederationSpec(
            dataset=dataset,
            model=model,
            distribution=distribution,
            scale=scale,
            seed=seed,
        )
        result = run_async(
            spec, strategy, network=network, device_flops=rates, max_updates=max_updates
        )
        panel.series[strategy.name] = result.time_accuracy_curve()
        panel.runs[strategy.name] = result
    return panel


def run_fig3(scale: ExperimentScale = BENCH, seed: int = 0) -> list[PanelResult]:
    """All four Figure 3 panels."""
    return [
        run_fig3_sync_panel("iid", scale, seed),
        run_fig3_sync_panel("shard", scale, seed),
        run_fig3_async_panel("iid", scale, seed),
        run_fig3_async_panel("shard", scale, seed),
    ]
