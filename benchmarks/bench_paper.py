"""The paper's artifacts, each regenerated once and checked against its claims.

``ARTIFACTS`` maps a name to a :class:`repro.cli.Study`: ``run(scale=…,
seed=…)`` builds the result, ``render(result, scale)`` is the text
written to ``results/<name>.txt`` and spliced into EXPERIMENTS.md by
``scripts/fill_experiments.py``.  The seven artifacts with a ``repro``
subcommand are the CLI's own entries; the rest are defined here.  A
grid study's result is its grid's ``dict[key, RunResult]`` (see
:func:`repro.experiments.spec.run_grid`), and its claims read that.

``CLAIMS`` holds the paper's qualitative shapes as rows: what to
measure on an artifact's result, and the bound it must meet.  At
``fast`` scale runs are too short for the shapes to emerge, so only
the rows marked ``always`` are armed; ``bench`` and ``full`` arm all.

    pytest benchmarks/bench_paper.py --benchmark-only           # bench scale
    pytest benchmarks/bench_paper.py -k table1                  # one artifact
    REPRO_BENCH_SCALE=fast pytest benchmarks/bench_paper.py     # plumbing smoke
    REPRO_BENCH_SEED=1 pytest benchmarks/bench_paper.py         # another seed
"""

from __future__ import annotations

import math
import operator
import os
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.cli import STUDIES, Study, runs_of
from repro.compression.base import dense_bytes
from repro.compression.dgc import DGCCompressor
from repro.compression.identity import NoCompression
from repro.compression.qsgd import QSGDCompressor
from repro.compression.terngrad import TernGradCompressor
from repro.core.adafl import AdaFLAsync
from repro.core.utility import UtilityScorer
from repro.embedded.cluster import compute_rates, make_heterogeneous_cluster
from repro.embedded.profiler import dgc_compress_flops, utility_score_flops
from repro.experiments.chaos import format_chaos_report, run_chaos_study
from repro.experiments.comparison import default_adafl_config
from repro.experiments.energy_study import run_energy_study
from repro.experiments.presets import get_scale
from repro.experiments.reporting import adafl_vs_fedavg, format_bytes, format_table, saving
from repro.experiments.runner import DATASET_PROFILES, FederationSpec, run_async
from repro.experiments.sensitivity import sensitivity_grid
from repro.fl.baselines import FedAsync, FedBuff
from repro.fl.fedat import FedAT, assign_tiers
from repro.fl.metrics import RunResult
from repro.network.conditions import NetworkConditions
from repro.nn.models import build_mnist_cnn

SCALE = get_scale(os.environ.get("REPRO_BENCH_SCALE", "bench"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
PAPER_DIM = 431_080  # the paper's CNN: a 1.64 MB float32 gradient


def _byte_saving(adafl: RunResult, fedavg: RunResult) -> float:
    return saving(adafl.total_bytes_up, fedavg.total_bytes_up)


def _byte_savings(results) -> list[float]:
    """AdaFL's uplink-byte saving over FedAvg at each point of a pair grid."""
    return [_byte_saving(*pair) for pair in adafl_vs_fedavg(results).values()]


def _speedup(adafl: RunResult, fedavg: RunResult) -> float:
    """FedAvg's simulated time over AdaFL's (> 1: AdaFL is faster)."""
    return 1.0 if adafl.total_sim_time == 0 else fedavg.total_sim_time / adafl.total_sim_time


def _render_sensitivity(results, scale) -> str:
    rows = [
        [condition, f"{a.final_accuracy:.3f}", f"{f.final_accuracy:.3f}",
         f"{100 * _byte_saving(a, f):.1f}%", f"{_speedup(a, f):.2f}x",
         format_bytes(a.total_bytes_up)]
        for condition, (a, f) in adafl_vs_fedavg(results).items()
    ]
    return format_table(
        ["condition", "AdaFL acc", "FedAvg acc", "bytes saved", "wall speedup", "AdaFL uplink"],
        rows, title="Network-condition sensitivity (non-IID MNIST-like)",
    )


def _render_energy(r, scale) -> str:
    rows = [
        [name, f"{compute:.2f}J", f"{comm:.2f}J", f"{compute + comm:.2f}J", f"{acc:.3f}"]
        for name, compute, comm, acc in (
            ("fedavg", r.fedavg_compute_j, r.fedavg_comm_j, r.fedavg_accuracy),
            ("adafl", r.adafl_compute_j, r.adafl_comm_j, r.adafl_accuracy),
        )
    ]
    table = format_table(["method", "compute", "radio", "total", "accuracy"], rows,
                         title="Fleet energy, Pi-4 + LTE radio (whole run)")
    return table + f"\ntotal energy saving: {100 * r.energy_saving:.1f}%"


def _run_fedat(scale, seed) -> dict:
    """FedAT (tiered aggregation) in the async suite, on a 30 %-slow fleet."""
    cluster = make_heterogeneous_cluster(
        scale.num_clients, ["pi4"], rng=np.random.default_rng(seed + 23),
        slow_fraction=0.3, slow_factor=3.0,
    )
    rates = compute_rates(cluster)
    network = NetworkConditions.with_stragglers(
        scale.num_clients, 0.2, good_preset="wifi", bad_preset="constrained",
        rng=np.random.default_rng(seed + 17),
    )
    spec = FederationSpec(dataset="mnist", model="mnist_cnn", distribution="shard",
                          scale=scale, seed=seed)
    methods = {
        "fedasync": FedAsync(),
        "fedbuff": FedBuff(buffer_size=3),
        "fedat": FedAT(tiers=assign_tiers(1.0 / rates, num_tiers=2)),
        "adafl-async": AdaFLAsync(default_adafl_config(scale, async_mode=True), network=network),
    }
    max_updates = scale.num_rounds * max(1, scale.num_clients // 2)
    return {
        name: run_async(spec, strategy, network=network, device_flops=rates,
                        max_updates=max_updates)
        for name, strategy in methods.items()
    }


def _render_fedat(runs, scale) -> str:
    rows = [
        [name, f"{r.final_accuracy:.3f}", str(r.total_uploads), format_bytes(r.total_bytes_up),
         f"{r.total_sim_time:.2f}s"]
        for name, r in runs.items()
    ]
    return format_table(["method", "accuracy", "updates", "uplink", "sim time"], rows,
                        title="Async methods + FedAT on a 30%-slow fleet (non-IID)")


def _grads() -> np.ndarray:
    """Two gradients at the paper's dimensionality (row 0 is compressed)."""
    return np.random.default_rng(0).normal(size=(2, PAPER_DIM))


# The client-side operations at the paper's dimensionality, timed by
# test_op_speed: name -> factory of op(gradient).
_OPS: dict[str, Callable[[], Callable[[np.ndarray], Any]]] = {
    **{f"dgc-{r:g}x": (lambda r=r: DGCCompressor(PAPER_DIM, ratio=r).compress)
       for r in (4.0, 50.0, 210.0)},
    "qsgd": lambda: QSGDCompressor(PAPER_DIM, num_levels=16, rng=np.random.default_rng(0)).compress,
    "terngrad": lambda: TernGradCompressor(PAPER_DIM, rng=np.random.default_rng(0)).compress,
}


def _run_compression(scale, seed) -> tuple[dict, float]:
    """Wire payloads behind Tables I/II's size columns, and one utility
    score; both at the paper's dimensionality, whatever the scale."""
    grad, global_grad = _grads()
    payloads = {"dense (baselines)": NoCompression(PAPER_DIM).compress(grad)}
    for ratio in (4.0, 50.0, 105.0, 210.0):
        payloads[f"DGC {ratio:g}x sparsity"] = DGCCompressor(PAPER_DIM, ratio=ratio).compress(grad)
    payloads["QSGD 16-level"] = _OPS["qsgd"]()(grad)
    payloads["TernGrad"] = _OPS["terngrad"]()(grad)
    return payloads, UtilityScorer().score(10.0, 10.0, grad, global_grad)


def _render_compression(result, scale) -> str:
    rows = [[name, format_bytes(p.num_bytes), f"{p.compression_ratio:.1f}x"]
            for name, p in result[0].items()]
    return format_table(["scheme", "wire size", "wire ratio"], rows,
                        title=f"Payload sizes at d={PAPER_DIM} (dense = paper's 1.64MB)")


ARTIFACTS: dict[str, Study] = {
    **STUDIES,
    "chaos": Study("Fault-matrix resilience report (sync engine)",
                   lambda scale, seed: run_chaos_study(scale=scale, seed=seed, engine="sync"),
                   lambda outcomes, scale: format_chaos_report(outcomes)),
    "sensitivity": Study("Extension: six network regimes", runs_of(sensitivity_grid),
                         _render_sensitivity),
    "energy": Study("Extension: fleet energy, Pi-4 + LTE", run_energy_study, _render_energy),
    "fedat": Study("Extension: FedAT in the async suite", _run_fedat, _render_fedat),
    "compression": Study("Payload sizes behind the size / ratio columns", _run_compression,
                         _render_compression),
}


class Claim(NamedTuple):
    """One qualitative shape: ``op(measure(result), bound)`` must hold."""

    artifact: str
    label: str
    measure: Callable[[Any], float]
    op: str
    bound: float | tuple[float, float]
    paper: str
    always: bool = False  # armed at ``fast`` scale too


OPS: dict[str, Callable[[float, Any], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
    "in": lambda x, b: b[0] <= x <= b[1],
}


def _panels(results, engine: str) -> list[dict[str, RunResult]]:
    """A figure's ``engine`` panels, each as curve label -> run."""
    panels: dict[str, dict[str, RunResult]] = {}
    for (kind, title, label), run in results.items():
        if kind == engine:
            panels.setdefault(title, {})[label] = run
    return list(panels.values())


def _vs(results, engine: str, ours: str, ref: str, field: str, diff) -> list[float]:
    """Per ``engine`` panel, ``diff(ours.field, ref.field)``."""
    return [diff(getattr(p[ours], field), getattr(p[ref], field))
            for p in _panels(results, engine)]


def _acc_vs(results, ours: str, ref: str) -> list[float]:
    """Per table workload, ``ours``' final accuracy minus ``ref``'s."""
    return [run.final_accuracy - results[(ref, *workload)].final_accuracy
            for (method, *workload), run in results.items() if method == ours]


def _row(results, method: str) -> RunResult:
    """The run a table row's communication columns come from: its first workload's."""
    return results[method, "mnist", "iid"]


def _cost_reduction(results, method: str) -> float:
    return _row(results, method).update_cost_reduction(SCALE.num_rounds * SCALE.num_clients)


def _byte_reduction(results, method: str) -> float:
    return _row(results, method).byte_cost_reduction(SCALE.num_rounds * SCALE.num_clients)


def _cnn_dim(scale) -> int:
    profile = DATASET_PROFILES["mnist"]
    return build_mnist_cnn((profile.channels, scale.image_size, scale.image_size),
                           profile.num_classes, channels=scale.cnn_channels,
                           hidden=scale.cnn_hidden).num_params


def _chaos(r, scenario: str):
    return next(o for o in r if o.scenario == scenario)


def _chaos_acc(r, scenario: str) -> float:
    return _chaos(r, scenario).final_accuracy


def _unguarded_drop(r) -> float:
    """Unguarded minus baseline accuracy; a diverged (NaN) model is -inf."""
    unguarded = _chaos_acc(r, "corrupt-unguarded")
    return unguarded - _chaos_acc(r, "baseline") if np.isfinite(unguarded) else -math.inf


CLAIMS: list[Claim] = [
    Claim("fig1", "min clean final accuracy, sync panels",
          lambda r: min(p["0%"].final_accuracy for p in _panels(r, "sync")),
          ">", 0.3, "every run learns"),
    Claim("fig1", "min final accuracy, 20 % − 0 % stragglers, sync panels",
          lambda r: min(p["20%"].final_accuracy - p["0%"].final_accuracy
                        for p in _panels(r, "sync")),
          ">=", -0.15, "<= 20 % barely moves the curves"),
    Claim("fig1", "min time to the update budget, 50 %-slow − clean, async panels",
          lambda r: min(p["50%"].total_sim_time - p["0%"].total_sim_time
                        for p in _panels(r, "async")),
          ">", 0.0, "staleness delays convergence in time"),
    Claim("fig3", "min final accuracy, adafl − fedavg, sync panels",
          lambda r: min(_vs(r, "sync", "adafl", "fedavg", "final_accuracy", operator.sub)),
          ">=", -0.08, "at or above every baseline"),
    Claim("fig3", "max uplink bytes, adafl ÷ fedavg, sync panels",
          lambda r: max(_vs(r, "sync", "adafl", "fedavg", "total_bytes_up", operator.truediv)),
          "<", 0.5, "a fraction of the bytes"),
    Claim("fig3", "min final accuracy, adafl-async − fedasync, async panels",
          lambda r: min(_vs(r, "async", "adafl-async", "fedasync", "final_accuracy", operator.sub)),
          ">=", -0.08, "up to +30 % non-IID"),
    Claim("fig3", "max uplink bytes, adafl-async ÷ fedasync, async panels",
          lambda r: max(_vs(r, "async", "adafl-async", "fedasync", "total_bytes_up",
                            operator.truediv)),
          "<", 0.5, "a fraction of the bytes"),
    Claim("table1", "fedavg cost reduction", lambda r: _cost_reduction(r, "fedavg"),
          "in", (0.45, 0.60), "-50 %"),
    Claim("table1", "cost reduction, adafl − fedavg",
          lambda r: _cost_reduction(r, "adafl") - _cost_reduction(r, "fedavg"),
          ">", 0.0, "-70.88 % vs -50 %"),
    Claim("table1", "adafl byte reduction", lambda r: _byte_reduction(r, "adafl"),
          ">", 0.60, "60-78 %"),
    Claim("table1", "min accuracy over workloads, adafl − fedavg",
          lambda r: min(_acc_vs(r, "adafl", "fedavg")), ">=", -0.10, "within ~1 point"),
    Claim("table1", "adafl compression ratio, max ÷ min",
          lambda r: operator.truediv(*_row(r, "adafl").compression_ratio_range()),
          ">", 2.0, "210x-4x"),
    Claim("table1", "min final accuracy over every method × workload",
          lambda r: min(run.final_accuracy for run in r.values()), ">", 0.10, "every cell learns"),
    Claim("table2", "fedasync cost reduction",
          lambda r: _cost_reduction(r, "fedasync"), "in", (0.45, 0.60), "-50 %"),
    Claim("table2", "adafl-async byte reduction",
          lambda r: _byte_reduction(r, "adafl"), ">", 0.60, "-78.5 %"),
    Claim("table2", "min accuracy over workloads, adafl-async − fedasync",
          lambda r: min(_acc_vs(r, "adafl", "fedasync")), ">=", -0.10, "parity"),
    Claim("overhead", "utility scoring overhead, % of training cycles",
          lambda r: r.utility_overhead_pct, "<", 0.5, "~0.05 %", always=True),
    Claim("overhead", "FLOPs per op, DGC compress ÷ utility score",
          lambda r: dgc_compress_flops(d := _cnn_dim(SCALE)) / utility_score_flops(d),
          ">", 1.0, "compression costs more", always=True),
    Claim("overhead", "net AdaFL cycles ÷ baseline cycles",
          lambda r: r.net_cycles / r.baseline_cycles, "<", 1.0, "selection savings dominate"),
    Claim("scalability", "min accuracy over N, adafl − fedavg",
          lambda r: min(a.final_accuracy - f.final_accuracy
                        for a, f in adafl_vs_fedavg(r).values()),
          ">=", -0.15, "robust from 20 to 100 clients"),
    Claim("scalability", "min byte saving over N", lambda r: min(_byte_savings(r)),
          ">", 0.3, "savings at every size"),
    Claim("scalability", "byte saving, largest − smallest N",
          lambda r: _byte_savings(r)[-1] - _byte_savings(r)[0], ">=", -0.05,
          "savings grow with N"),
    Claim("ablation", "min accuracy over variants",
          lambda r: min(run.final_accuracy for run in r.values()), ">", 0.3, "-"),
    Claim("ablation", "uplink bytes, fixed-heavy(210x) ÷ base",
          lambda r: r["fixed-heavy(210x)"].total_bytes_up / r["base(cosine)"].total_bytes_up,
          "<", 1.0, "-"),
    Claim("ablation", "uplink bytes, fixed-light(4x) ÷ base",
          lambda r: r["fixed-light(4x)"].total_bytes_up / r["base(cosine)"].total_bytes_up,
          ">", 1.0, "-"),
    Claim("ablation", "updates, no-threshold(tau=0) − base",
          lambda r: r["no-threshold(tau=0)"].total_uploads - r["base(cosine)"].total_uploads,
          ">=", 0, "-"),
    Claim("chaos", "corrupt-guarded rejected uploads",
          lambda r: _chaos(r, "corrupt-guarded").rejected_uploads, ">", 0, "-",
          always=True),
    Claim("chaos", "|corrupt-guarded − baseline| accuracy",
          lambda r: abs(_chaos_acc(r, "corrupt-guarded") - _chaos_acc(r, "baseline")),
          "<=", 0.05, "-"),
    Claim("chaos", "corrupt-unguarded − baseline accuracy (diverged: -inf)", _unguarded_drop,
          "<=", -0.05, "-"),
    Claim("sensitivity", "min byte saving over conditions",
          lambda r: min(_byte_savings(r)), ">", 0.5, "-"),
    Claim("sensitivity", "wall-clock speedup, constrained",
          lambda r: _speedup(*adafl_vs_fedavg(r)["constrained"]), ">", 1.5, "-"),
    Claim("energy", "radio energy, adafl ÷ fedavg", lambda r: r.adafl_comm_j / r.fedavg_comm_j,
          "<", 0.4, "tracks the 60-78 % byte cut"),
    Claim("energy", "total energy saving", lambda r: r.energy_saving, ">", 0.05, "-"),
    Claim("fedat", "uplink bytes, adafl-async ÷ smallest other",
          lambda r: r["adafl-async"].total_bytes_up
          / min(r[n].total_bytes_up for n in ("fedasync", "fedbuff", "fedat")), "<", 1.0, "-"),
    Claim("fedat", "min final accuracy", lambda r: min(x.final_accuracy for x in r.values()),
          ">", 0.4, "-"),
    Claim("compression", "max DGC 4x / 50x / 210x payload bytes",
          lambda r: max(r[0][f"DGC {x} sparsity"].num_bytes for x in ("4x", "50x", "210x")),
          "<", dense_bytes(PAPER_DIM), "1.64 MB dense", always=True),
    Claim("compression", "QSGD 16-level payload bytes", lambda r: r[0]["QSGD 16-level"].num_bytes,
          "<", dense_bytes(PAPER_DIM), "-", always=True),
    Claim("compression", "TernGrad payload bytes", lambda r: r[0]["TernGrad"].num_bytes,
          "<", dense_bytes(PAPER_DIM), "-", always=True),
    Claim("compression", "DGC 210x payload bytes, vs 64 KiB",
          lambda r: r[0]["DGC 210x sparsity"].num_bytes, "<", 64 * 1024, "8 KB", always=True),
    Claim("compression", "utility score", lambda r: r[1], "in", (0.0, 1.0), "-", always=True),
    Claim("compression", "DGC 210x payload bytes, vs 4 B per coordinate",
          lambda r: r[0]["DGC 210x sparsity"].num_bytes, "<", 4 * PAPER_DIM, "-", always=True),
]


def _num(x: float) -> str:
    return f"{x:,.0f}" if float(x).is_integer() else f"{x:.4g}"


def _bound(claim: Claim) -> str:
    if claim.op == "in":
        return f"[{_num(claim.bound[0])}, {_num(claim.bound[1])}]"
    return f"{claim.op} {_num(claim.bound)}"


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact(name, benchmark, report):
    study = ARTIFACTS[name]
    result = benchmark.pedantic(study.run, kwargs=dict(scale=SCALE, seed=SEED),
                                rounds=1, iterations=1)
    rows, failed = [], []
    for claim in (c for c in CLAIMS if c.artifact == name):
        value = claim.measure(result)
        if SCALE.name == "fast" and not claim.always:
            verdict = "not armed"
        else:
            verdict = "pass" if OPS[claim.op](value, claim.bound) else "FAIL"
        if verdict == "FAIL":
            failed.append(claim.label)
        rows.append([name, claim.label, claim.paper, _num(value), _bound(claim), verdict])
    report(name, study.render(result, SCALE), rows)
    assert not failed, failed


@pytest.mark.parametrize("op", [*_OPS, "utility-score"])
def test_op_speed(benchmark, op):
    """Wall time of one client-side operation at the paper's dimensionality."""
    grad, global_grad = _grads()
    if op == "utility-score":
        benchmark(UtilityScorer().score, 10.0, 10.0, grad, global_grad)
    else:
        benchmark(_OPS[op](), grad)
