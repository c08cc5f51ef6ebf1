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

A figure's grid is keyed ``(engine, panel title, curve label)``:
:func:`~repro.experiments.runner.format_panels` plots a ``sync`` panel
against rounds and an ``async`` one against simulated time.
"""

from __future__ import annotations

from repro.experiments.presets import ExperimentScale
from repro.experiments.runner import PAPER_MODELS
from repro.experiments.spec import Named, RunSpec

__all__ = ["STRAGGLER_FRACTIONS", "fig1_grid"]

STRAGGLER_FRACTIONS = (0.0, 0.1, 0.2, 0.5)
_SLOW_FACTOR = 3.0


def fig1_grid(scale: ExperimentScale, seed: int) -> dict[tuple[str, str, str], RunSpec]:
    """All panels of Figure 1: 8 sync, then 4 async."""
    cells = [(w, d) for w in ("mnist", "cifar10") for d in ("iid", "shard")]
    grid: dict[tuple[str, str, str], RunSpec] = {}
    for workload, distribution in cells:
        base = RunSpec.of(
            scale, seed, dataset=workload, model=PAPER_MODELS[workload],
            distribution=distribution,
            participation_rate=1.0,  # the study isolates faults, not sampling
            strategy=Named("fedavg", {"participation_rate": 1.0}),
        )
        for mode in ("dropout", "dataloss"):  # rows of FAULTS
            title = f"Sync FedAvg, {workload}, {distribution}, {mode}"
            for f in STRAGGLER_FRACTIONS:
                grid["sync", title, f"{int(f * 100)}%"] = base.vary(
                    faults=(Named(mode, {"fraction": f}),))
    for workload, distribution in cells:
        # The straggler fraction runs on slower devices, so its updates
        # arrive stale.  Half the sync ideal is plenty to expose the
        # staleness gap (the wall-clock ratio is budget-independent) at
        # half the bench cost.
        base = RunSpec.of(
            scale, seed, dataset=workload, model=PAPER_MODELS[workload],
            distribution=distribution, engine="async", strategy="fedasync",
            max_updates=scale.num_rounds * scale.num_clients // 2,
        )
        title = (f"Async FedAsync, {workload}, {distribution}, "
                 f"{_SLOW_FACTOR}x-slow stragglers")
        for f in STRAGGLER_FRACTIONS:
            grid["async", title, f"{int(f * 100)}%"] = base.vary(devices=Named("slow_pi", {
                "slow_fraction": f, "slow_factor": _SLOW_FACTOR, "seed_offset": int(f * 100)}))
    return grid
