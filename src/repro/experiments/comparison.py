"""Figure 3 — AdaFL vs the state of the art (§V, "Effectiveness").

Four panels of CNN-on-MNIST accuracy curves:

* (a) synchronous, IID — FedAvg / FedAdam / FedProx / SCAFFOLD / AdaFL
  against communication rounds;
* (b) synchronous, non-IID — same methods;
* (c) asynchronous, IID — FedAsync / FedBuff / AdaFL against simulated
  time;
* (d) asynchronous, non-IID — same methods.

Baselines run at the paper's fixed participation rate ``r_p = 0.5``;
AdaFL selects adaptively with ``k <= 5``.  The grid is keyed like
Figure 1's, each curve labelled with its run's method name.
"""

from __future__ import annotations

from repro.experiments.presets import ExperimentScale
from repro.experiments.spec import ASYNC_LINEUP, SYNC_LINEUP, RunSpec, default_adafl_config

__all__ = ["default_adafl_config", "fig3_grid"]


def fig3_grid(scale: ExperimentScale, seed: int) -> dict[tuple[str, str, str], RunSpec]:
    """All four Figure 3 panels: sync IID / non-IID, then async."""
    grid: dict[tuple[str, str, str], RunSpec] = {}
    for engine, lineup in (("sync", SYNC_LINEUP), ("async", ASYNC_LINEUP)):
        for distribution in ("iid", "shard"):
            base = RunSpec.of(scale, seed, distribution=distribution, network="constrained")
            if engine == "async":
                base = base.vary(engine="async", devices="slow_pi",
                                 max_updates=scale.num_rounds * max(1, scale.num_clients // 2))
            title = f"{engine.capitalize()} comparison, mnist, {distribution}"
            for method in lineup:
                spec = base.vary(strategy=method)
                grid[engine, title, spec.resolve()[0].name] = spec
    return grid
