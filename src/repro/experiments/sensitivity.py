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

from repro.experiments.presets import ExperimentScale
from repro.experiments.spec import Named, RunSpec

__all__ = ["NETWORK_CONDITIONS", "sensitivity_grid"]

# condition -> its :data:`~repro.experiments.spec.NETWORKS` row; the
# study draws its random link mixes at seed offset 41.
NETWORK_CONDITIONS = {
    **{p: Named("uniform", {"preset": p}) for p in ("ethernet", "wifi", "lte", "constrained")},
    "mixed": Named("constrained", {"seed_offset": 41}),
    "dynamic": Named("dynamic"),
}


def sensitivity_grid(scale: ExperimentScale, seed: int) -> dict[tuple[str, str], RunSpec]:
    """``(condition, method)``: AdaFL, then FedAvg (r_p = 0.5), on the
    same non-IID federation under each network condition."""
    base = RunSpec.of(scale, seed, distribution="shard")
    return {
        (condition, method): base.vary(network=network, strategy=method)
        for condition, network in NETWORK_CONDITIONS.items()
        for method in ("adafl", "fedavg")
    }
