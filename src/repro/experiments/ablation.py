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

from repro.experiments.presets import ExperimentScale
from repro.experiments.spec import Named, RunSpec

__all__ = ["ablation_grid"]


def ablation_grid(scale: ExperimentScale, seed: int) -> dict[str, RunSpec]:
    """Each AdaFL variant, by name, on the same non-IID federation; a
    variant is dotted overrides of
    :func:`~repro.experiments.spec.default_adafl_config` — the ``adafl``
    strategy row's params."""
    def fixed(ratio: float) -> dict[str, float]:
        return {f"policy.{k}": ratio for k in ("min_ratio", "max_ratio", "warmup_ratio")}

    variants = {
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
    base = RunSpec.of(scale, seed, distribution="shard", network="constrained")
    return {name: base.vary(strategy=Named("adafl", o)) for name, o in variants.items()}
