"""§V Q3 — AdaFL's on-device overhead, on a simulated Pi cluster.

The paper runs a ten-node Raspberry Pi cluster under ``perf`` and
reports that utility-score calculation adds ~0.05% CPU cycles over the
training baseline, compression adds more, and adaptive selection's
compute savings dwarf both.  This runner reproduces that accounting
with the cycle cost model of :mod:`repro.embedded.profiler`:

1. run AdaFL-sync for real to obtain the actual per-round selection
   decisions;
2. charge each client's cycle counter for its training, utility
   scoring, and compression work as they would occur on a Pi;
3. compare against the no-AdaFL baseline in which every selected-rate
   client trains and uploads densely every round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.embedded.device import DEVICE_PRESETS
from repro.embedded.profiler import (
    CycleCounter,
    dgc_compress_flops,
    training_flops,
    utility_score_flops,
)
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.runner import Federation
from repro.experiments.spec import Named, RunSpec, open_run

__all__ = ["OverheadResult", "run_overhead_study", "client_training_flops"]


def client_training_flops(fed: Federation) -> dict[int, int]:
    """Per-client per-round training cost (local data sizes differ)."""
    model, epochs = fed.model_fn(), fed.spec.scale.local_epochs
    return {c.client_id: training_flops(model, len(c.dataset), epochs) for c in fed.clients}


@dataclass(frozen=True)
class OverheadResult:
    """Cycle accounting for the overhead experiment."""

    baseline_cycles: float  # training every round without AdaFL
    utility_cycles: float  # added by utility scoring
    compression_cycles: float  # added by DGC compression
    adafl_training_cycles: float  # training actually performed by AdaFL
    rounds: int
    accuracy: float

    @property
    def utility_overhead_pct(self) -> float:
        """The paper's headline ~0.05% figure."""
        return 100.0 * self.utility_cycles / self.baseline_cycles

    @property
    def compression_overhead_pct(self) -> float:
        return 100.0 * self.compression_cycles / self.baseline_cycles

    @property
    def compute_saving_pct(self) -> float:
        """Training cycles saved by adaptive selection (positive = saved)."""
        return 100.0 * (1.0 - self.adafl_training_cycles / self.baseline_cycles)

    @property
    def net_cycles(self) -> float:
        """AdaFL total including overheads."""
        return self.adafl_training_cycles + self.utility_cycles + self.compression_cycles


def run_overhead_study(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    device_model: str = "pi4",
) -> OverheadResult:
    """Run AdaFL on a Pi cluster and account CPU cycles per component."""
    spec = RunSpec.of(
        replace(scale, eval_every=scale.num_rounds),  # one final evaluation is enough here
        seed,
        distribution="shard",
        devices=Named("pi", {"model": device_model}),
    )
    with open_run(spec) as session:
        result = session.run()
        fed, strategy = session.federation, session.engine.strategy

    dim = fed.model_fn().num_params
    counter = CycleCounter(DEVICE_PRESETS[device_model])

    train_cost = client_training_flops(fed)

    # Baseline: every client trains and uploads densely every round —
    # the "without AdaFL" perf run the paper subtracts against.
    for _ in range(scale.num_rounds):
        for cid, flops in train_cost.items():
            counter.charge_flops("training", flops)
    baseline = counter.cycles("training")
    counter.reset()

    # AdaFL: training only for actual participants; utility scoring for
    # every client every post-warm-up round; compression per upload.
    warmup = strategy.config.policy.warmup_rounds
    for record in result.records:
        for cid in record.participants:
            counter.charge_flops("training", train_cost[cid])
        if record.round_index >= warmup:
            for cid in train_cost:
                counter.charge_flops("utility", utility_score_flops(dim))
        for _ in record.participants:
            counter.charge_flops("compression", dgc_compress_flops(dim))

    return OverheadResult(
        baseline_cycles=baseline,
        utility_cycles=counter.cycles("utility"),
        compression_cycles=counter.cycles("compression"),
        adafl_training_cycles=counter.cycles("training"),
        rounds=scale.num_rounds,
        accuracy=result.final_accuracy,
    )
