"""Ablations over AdaFL's design choices.

DESIGN.md calls out four knobs the paper fixes without sweeping; the
ablation bench regenerates evidence for each:

* **similarity metric** — cosine (paper's choice) vs L2 vs Euclidean
  (the alternatives §IV mentions);
* **warm-up length** — no warm-up vs the default vs extended;
* **compression bounds** — adaptive 4x–210x vs fixed-light (4x) vs
  fixed-heavy (210x);
* **bandwidth term** — utility with vs without the ``B_i`` inputs
  (similarity-only selection).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.adafl import AdaFLConfig, AdaFLSync
from repro.core.utility import UtilityScorer
from repro.experiments.comparison import default_adafl_config
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.runner import FederationSpec, run_sync, straggler_network
from repro.fl.metrics import RunResult

__all__ = ["AblationPoint", "run_ablation", "ablation_variants"]


@dataclass(frozen=True)
class AblationPoint:
    """One AdaFL variant's outcome."""

    variant: str
    accuracy: float
    updates: int
    bytes_up: int
    run: RunResult


def ablation_variants(scale: ExperimentScale) -> dict[str, AdaFLConfig]:
    """Named AdaFL configurations for the ablation sweep."""
    base = default_adafl_config(scale)
    policy = base.policy
    return {
        "base(cosine)": base,
        "metric=l2": replace(base, scorer=replace(base.scorer, metric="l2")),
        "metric=euclidean": replace(base, scorer=replace(base.scorer, metric="euclidean")),
        "no-warmup": replace(base, policy=replace(policy, warmup_rounds=0)),
        "long-warmup": replace(base, policy=replace(policy, warmup_rounds=max(4, scale.num_rounds // 4))),
        "fixed-light(4x)": replace(
            base, policy=replace(policy, min_ratio=4.0, max_ratio=4.0, warmup_ratio=4.0)
        ),
        "fixed-heavy(210x)": replace(
            base,
            policy=replace(policy, min_ratio=210.0, max_ratio=210.0, warmup_ratio=210.0),
        ),
        "no-bandwidth-term": replace(
            base, scorer=UtilityScorer(metric=base.scorer.metric, sim_weight=1.0, bw_weight=0.0)
        ),
        "no-threshold(tau=0)": replace(base, tau=0.0),
        "no-score-smoothing": replace(base, score_smoothing=0.0),
        "no-rotation-bonus": replace(base, rotation_bonus=0.0),
        "absolute-tau(0.6)": replace(base, tau=0.6, tau_mode="absolute"),
    }


def run_ablation(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    distribution: str = "shard",
    variants: dict[str, AdaFLConfig] | None = None,
) -> list[AblationPoint]:
    """Run each AdaFL variant on the same federation and compare."""
    variants = variants if variants is not None else ablation_variants(scale)
    network = straggler_network(scale.num_clients, seed)
    points = []
    for name, config in variants.items():
        spec = FederationSpec(
            dataset="mnist",
            model="mnist_cnn",
            distribution=distribution,
            scale=scale,
            seed=seed,
        )
        result = run_sync(spec, AdaFLSync(config), network=network)
        points.append(
            AblationPoint(
                variant=name,
                accuracy=result.final_accuracy,
                updates=result.total_uploads,
                bytes_up=result.total_bytes_up,
                run=result,
            )
        )
    return points
