"""Network-sensitivity sweep (extension experiment).

The paper's motivating claim is that static communication strategies
degrade under real network dynamics while AdaFL adapts.  This sweep
quantifies that: FedAvg and AdaFL run over progressively worse — and
finally *time-varying* — network conditions, recording accuracy, bytes
moved, and wall-clock per condition.

Conditions: uniform ``ethernet`` / ``wifi`` / ``lte`` / ``constrained``
links, a mixed fleet with 20% constrained stragglers, and a ``dynamic``
condition where every link follows a Gauss-Markov fading trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.runner import check_known
from repro.experiments.spec import AdaFLvsFedAvg, Named, RunSpec

__all__ = ["SensitivityPoint", "NETWORK_CONDITIONS", "run_network_sensitivity"]

# condition -> its :data:`~repro.experiments.spec.NETWORKS` row; the
# study draws its random link mixes at seed offset 41.
NETWORK_CONDITIONS = {
    **{p: Named("uniform", {"preset": p}) for p in ("ethernet", "wifi", "lte", "constrained")},
    "mixed": Named("constrained", {"seed_offset": 41}),
    "dynamic": Named("dynamic"),
}


@dataclass(frozen=True)
class SensitivityPoint(AdaFLvsFedAvg):
    """Both methods' outcomes under one network condition."""

    condition: str


def _network(condition: str) -> Named:
    check_known("condition", condition, NETWORK_CONDITIONS)
    return NETWORK_CONDITIONS[condition]


def run_network_sensitivity(
    conditions: tuple[str, ...] = tuple(NETWORK_CONDITIONS),
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    distribution: str = "shard",
) -> list[SensitivityPoint]:
    """Sweep network conditions; compare AdaFL against FedAvg on each."""
    base = RunSpec.of(scale, seed, distribution=distribution)
    return [
        SensitivityPoint.of(base.vary(network=_network(condition)), condition=condition)
        for condition in conditions
    ]
