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

from dataclasses import dataclass
from typing import Any, Mapping

from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.spec import Named, RunSpec, run
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


def ablation_variants(scale: ExperimentScale) -> dict[str, dict[str, Any]]:
    """Named AdaFL variants, each as dotted overrides of
    :func:`~repro.experiments.spec.default_adafl_config` — the ``adafl``
    strategy row's params."""
    def fixed(ratio: float) -> dict[str, float]:
        return {f"policy.{k}": ratio for k in ("min_ratio", "max_ratio", "warmup_ratio")}

    return {
        "base(cosine)": {},
        "metric=l2": {"scorer.metric": "l2"},
        "metric=euclidean": {"scorer.metric": "euclidean"},
        "no-warmup": {"policy.warmup_rounds": 0},
        "long-warmup": {"policy.warmup_rounds": max(4, scale.num_rounds // 4)},
        "fixed-light(4x)": fixed(4.0),
        "fixed-heavy(210x)": fixed(210.0),
        "no-bandwidth-term": {"scorer.sim_weight": 1.0, "scorer.bw_weight": 0.0},
        "no-threshold(tau=0)": {"tau": 0.0},
        "no-score-smoothing": {"score_smoothing": 0.0},
        "no-rotation-bonus": {"rotation_bonus": 0.0},
        "absolute-tau(0.6)": {"tau": 0.6, "tau_mode": "absolute"},
    }


def run_ablation(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    distribution: str = "shard",
    variants: Mapping[str, Mapping[str, Any]] | None = None,
) -> list[AblationPoint]:
    """Run each AdaFL variant on the same federation and compare."""
    variants = variants if variants is not None else ablation_variants(scale)
    base = RunSpec.of(scale, seed, distribution=distribution, network="constrained")
    points = []
    for name, overrides in variants.items():
        result = run(base.vary(strategy=Named("adafl", overrides)))
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
