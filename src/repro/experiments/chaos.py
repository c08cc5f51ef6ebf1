"""Chaos study: a fault-matrix sweep with a resilience report.

Runs the same federation through a matrix of failure scenarios —
client crashes, payload corruption (with and without server-side
validation), stale/duplicate uploads, server outages — and reports per
scenario how much work was lost (drops by reason), how much the server
refused (rejected uploads), how quickly dropped clients recovered, and
where the model landed.  The corruption pair is the paper-style
punchline: an unguarded server is NaN-poisoned by a single corrupt
upload and never recovers, while validation + trimmed-mean keeps the
run within a few points of fault-free.

Fault timescales are calibrated from a fault-free probe of the same
spec (mean time between failures of roughly a third of the run, outage
windows around a sixth), so the scenarios bite at any experiment
scale rather than only at one hand-tuned clock rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.experiments.presets import FAST, ExperimentScale
from repro.experiments.spec import Named, RunSpec, run
from repro.sim import (
    AGGREGATED,
    COUNTED_DROP_REASONS,
    DROPPED,
    EventTrace,
    REJECTED_DROP_REASONS,
    RingBufferSink,
)

__all__ = [
    "ChaosScenario",
    "ChaosOutcome",
    "default_scenarios",
    "run_chaos_study",
    "format_chaos_report",
]


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the fault matrix.

    ``fault`` maps the probe run's total simulated time to the
    :data:`~repro.experiments.spec.FAULTS` row (with params scaled to
    it) the run suffers; ``validation`` is the spec's field of that name.
    """

    name: str
    fault: Callable[[float], Named] = lambda t: Named("none")
    validation: Mapping[str, Any] | None = None


@dataclass
class ChaosOutcome:
    """What one scenario did to the run."""

    scenario: str
    final_accuracy: float
    total_uploads: int
    rejected_uploads: int
    drops_by_reason: dict[str, int] = field(default_factory=dict)
    recovery_latency_s: float | None = None
    model_finite: bool = True


def default_scenarios() -> list[ChaosScenario]:
    """The standard fault matrix (baseline + five failure modes)."""

    def corrupt(t: float) -> Named:
        return Named("corrupt", {"prob": 0.2, "kind": "nan"})

    def stale(t: float) -> Named:
        return Named(
            "stale", {"delay_prob": 0.3, "mean_delay_s": t / 20.0, "duplicate_prob": 0.3}
        )

    return [
        ChaosScenario("baseline"),
        ChaosScenario(
            "crash", lambda t: Named("crashy", {"mtbf_s": t / 3.0, "mean_downtime_s": t / 10.0})
        ),
        ChaosScenario("corrupt-unguarded", corrupt),
        ChaosScenario("corrupt-guarded", corrupt, {"trimmed_mean_fallback": True}),
        ChaosScenario("stale-dup", stale, validation={}),
        ChaosScenario(
            "outage",
            lambda t: Named("outage", {"windows": [(0.30 * t, 0.45 * t), (0.7 * t, 0.8 * t)]}),
        ),
    ]


def _recovery_latency(events) -> float | None:
    """Mean seconds from a drop to that client's next accepted upload."""
    interesting = COUNTED_DROP_REASONS | REJECTED_DROP_REASONS
    drops = [
        (e.t, e.client)
        for e in events
        if e.type == DROPPED
        and e.client is not None
        and e.data.get("reason") in interesting
    ]
    participations: list[tuple[float, set[int]]] = []
    for e in events:
        if e.type != AGGREGATED:
            continue
        if "participants" in e.data:
            participations.append((e.t, {int(c) for c in e.data["participants"]}))
        elif e.client is not None:
            participations.append((e.t, {int(e.client)}))
    latencies = []
    for t, cid in drops:
        for t2, members in participations:
            if t2 > t and cid in members:
                latencies.append(t2 - t)
                break
    return float(np.mean(latencies)) if latencies else None


def run_chaos_study(
    scale: ExperimentScale | None = None,
    seed: int = 0,
    engine: str = "sync",
    dataset: str = "mnist",
) -> list[ChaosOutcome]:
    """Run the fault matrix and collect one outcome per scenario."""
    scale = scale if scale is not None else FAST
    if engine == "sync":
        method = {"strategy": Named("fedavg", {"participation_rate": 1.0})}
    else:
        method = {"strategy": "fedasync", "max_updates": scale.num_rounds * scale.num_clients}
    # A mildly lossy fleet network so transport drops appear too.
    base = RunSpec.of(
        scale, seed, dataset=dataset, model="mlp", participation_rate=1.0,
        network="lossy", engine=engine, **method,
    )

    # Fault-free probe fixes the study's timescale.
    probe = run(base)
    probe_time = max(probe.total_sim_time, 1e-9)

    outcomes: list[ChaosOutcome] = []
    for scenario in default_scenarios():
        sink = RingBufferSink()
        spec = base.vary(faults=(scenario.fault(probe_time),), validation=scenario.validation)
        result = run(spec, trace=EventTrace([sink]))
        events = sink.events()
        drops: dict[str, int] = {}
        for e in events:
            if e.type == DROPPED:
                reason = e.data.get("reason", "?")
                drops[reason] = drops.get(reason, 0) + 1
        # final_accuracy is NaN-safe only for display; keep the raw value.
        outcomes.append(
            ChaosOutcome(
                scenario=scenario.name,
                final_accuracy=result.final_accuracy,
                total_uploads=result.total_uploads,
                rejected_uploads=result.total_rejected,
                drops_by_reason=dict(sorted(drops.items())),
                recovery_latency_s=_recovery_latency(events),
                model_finite=bool(np.isfinite(result.final_accuracy)),
            )
        )
    return outcomes


def format_chaos_report(outcomes: list[ChaosOutcome]) -> str:
    """Human-readable resilience report for a chaos study."""
    lines = ["chaos resilience report", "=" * 60]
    baseline = next((o for o in outcomes if o.scenario == "baseline"), None)
    for o in outcomes:
        acc = f"{o.final_accuracy:.3f}" if np.isfinite(o.final_accuracy) else "diverged"
        lines.append(f"{o.scenario}")
        lines.append(f"  final accuracy   : {acc}")
        if baseline is not None and o is not baseline and np.isfinite(
            o.final_accuracy
        ) and np.isfinite(baseline.final_accuracy):
            delta = o.final_accuracy - baseline.final_accuracy
            lines.append(f"  vs baseline      : {delta:+.3f}")
        lines.append(f"  accepted uploads : {o.total_uploads}")
        lines.append(f"  rejected uploads : {o.rejected_uploads}")
        drops = (
            ", ".join(f"{k}={v}" for k, v in o.drops_by_reason.items())
            if o.drops_by_reason
            else "none"
        )
        lines.append(f"  drops by reason  : {drops}")
        if o.recovery_latency_s is not None:
            lines.append(f"  mean recovery    : {o.recovery_latency_s:.3f}s")
        lines.append("")
    return "\n".join(lines).rstrip()
