"""Command-line interface: ``python -m repro <command>``.

Runs any of the paper's experiments from a shell and prints the same
tables/series the benchmark harness produces, optionally archiving raw
run JSON next to them.

Examples::

    python -m repro table1 --scale fast
    python -m repro fig3 --scale bench --seed 1
    python -m repro overhead
    python -m repro quickrun --dataset mnist --distribution shard \
        --method adafl --rounds 20 --out run.json
    python -m repro quickrun --engine async --method fedbuff --trace run.jsonl
    python -m repro run examples/specs/adafl_sync_stragglers.json --out run.json
    python -m repro trace run.jsonl
    python -m repro sweep --strategies fedavg afd adagq \
        --networks constrained --rounds 20 --out sweep.json
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from repro.experiments.ablation import run_ablation
from repro.experiments.comparison import run_fig3
from repro.experiments.empirical import run_fig1
from repro.experiments.overhead import run_overhead_study
from repro.experiments.presets import get_scale
from repro.experiments.reporting import format_bytes, format_series, format_table
from repro.experiments.runner import DATASET_PROFILES, DISTRIBUTIONS, MODELS, format_panels
from repro.experiments.scalability import run_scalability
from repro.experiments.spec import STRATEGIES, RunSpec, run
from repro.experiments.tables import render_table, run_table1, run_table2
from repro.fl.persist import save_run_result

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (one subcommand per experiment)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AdaFL (DAC 2025) reproduction experiments",
    )
    parser.add_argument("--scale", default="fast", choices=("fast", "bench", "full"))
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several commands share, each stated once.
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", default="mnist", choices=tuple(DATASET_PROFILES))
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--engine", default="sync", choices=("sync", "async"))
    federation = argparse.ArgumentParser(add_help=False, parents=[dataset])
    federation.add_argument("--model", default="mnist_cnn", choices=MODELS)
    federation.add_argument("--distribution", default="iid", choices=DISTRIBUTIONS)
    federation.add_argument("--rounds", type=int, default=None, help="override the scale's rounds")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", default=None, help="write run JSON here")
    outputs.add_argument("--trace", default=None, help="record the event trace as JSONL here")
    one_run = argparse.ArgumentParser(add_help=False, parents=[federation, engine, outputs])
    one_run.add_argument("--method", default="adafl", choices=tuple(STRATEGIES))

    for name, (summary, _) in _STUDIES.items():
        sub.add_parser(name, help=summary)

    pop = sub.add_parser(
        "population",
        parents=[engine],
        help="virtual-population smoke: a 100k-client round in O(active) memory",
    )
    pop.add_argument("--clients", type=int, default=100_000)
    pop.add_argument("--rounds", type=int, default=2)
    pop.add_argument("--cohort", type=int, default=20)
    pop.add_argument("--mode", default="regenerate", choices=("regenerate", "spill"))
    pop.add_argument("--spill-dir", default=None, help="blob directory for spill mode")

    report = sub.add_parser("report", help="build an HTML report from saved runs")
    report.add_argument("--runs", nargs="+", required=True, help="run JSON files")
    report.add_argument("--out", default="report.html")
    report.add_argument("--artifacts", default=None, help="benchmarks/results dir to embed")

    quick = sub.add_parser(
        "quickrun", parents=[one_run], help="one federated run (sync or async)"
    )
    snapshot_help = "write crash-safe run snapshots here (resume with `repro resume`)"
    quick.add_argument("--snapshot", default=None, help=snapshot_help)
    quick.add_argument(
        "--snapshot-every", type=int, default=1,
        help="snapshot period in rounds (sync) or updates (async)",
    )
    quick.add_argument(
        "--transport", default="memory", choices=("memory", "tcp"),
        help="memory: in-process clients; tcp: spawn worker processes "
        "and run the round protocol over real sockets",
    )
    quick.add_argument(
        "--workers", type=int, default=4,
        help="worker process count for --transport tcp",
    )

    spec_run = sub.add_parser(
        "run", parents=[outputs],
        help="run a RunSpec JSON file (a sweep cell, a quickrun, a fuzzer failure)",
    )
    spec_run.add_argument("spec", help="file written by RunSpec.to_json()")
    spec_run.add_argument("--snapshot", default=None, help=snapshot_help)

    serve = sub.add_parser(
        "serve",
        parents=[one_run],
        help="federated server over sockets; workers dial in with `repro worker`",
    )
    serve.add_argument("--listen", default="127.0.0.1:0", help="host:port or unix:/path")
    serve.add_argument("--workers", type=int, default=4, help="worker slots to wait for")
    serve.add_argument("--quorum", type=float, default=None, help="quorum fraction (sync)")
    serve.add_argument(
        "--ready-timeout-s", type=float, default=300.0,
        help="how long to wait for all workers to dial in",
    )

    wk = sub.add_parser("worker", help="client worker: dial a `repro serve` server")
    wk.add_argument("--connect", required=True, help="server address (host:port or unix:/path)")
    wk.add_argument("--index", type=int, default=None, help="worker slot to claim")
    wk.add_argument(
        "--idle-exit-s", type=float, default=600.0,
        help="exit after this much request silence (orphan reaping)",
    )

    tr = sub.add_parser("trace", help="summarize a recorded JSONL event trace")
    tr.add_argument("path", help="trace file written by --trace / JsonlSink")
    tr.add_argument(
        "--client", type=int, default=None, help="also print this client's event timeline"
    )

    wire = sub.add_parser("wire", help="wire-frame stats from a recorded JSONL trace")
    wire.add_argument("path", help="trace file written by --trace / JsonlSink")

    sweep = sub.add_parser(
        "sweep",
        parents=[federation],
        help="strategy × network × fault grid with a comparison artifact",
    )
    sweep.add_argument(
        "--strategies", nargs="+", default=None,
        help="strategy names to sweep (rows of repro.experiments.spec.STRATEGIES)",
    )
    sweep.add_argument("--networks", nargs="+", default=None, help="network profile names")
    sweep.add_argument("--faults", nargs="+", default=None, help="fault model names")
    sweep.add_argument("--reference", default="fedavg", help="baseline strategy per cell")
    sweep.add_argument(
        "--max-sim-time-s", type=float, default=None,
        help="override the scale's simulated-time budget",
    )
    sweep.add_argument("--eval-every", type=int, default=None)
    sweep.add_argument("--out", default=None, help="write the JSON comparison artifact here")

    sub.add_parser(
        "chaos", parents=[engine, dataset], help="fault-matrix smoke study + resilience report"
    )

    resume = sub.add_parser(
        "resume", parents=[outputs], help="finish a snapshotted run (crash recovery)"
    )
    resume.add_argument("--snapshot", required=True, help="snapshot file written by a run")

    lint = sub.add_parser("lint", help="reprolint: static repo-invariant checks")
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: the repro package)",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable report")
    lint.add_argument(
        "--format", default=None, choices=("text", "json", "sarif"),
        help="report format (--json is an alias for --format json)",
    )
    lint.add_argument(
        "--diff", default=None, metavar="GIT_REF",
        help="incremental: lint only files changed since GIT_REF plus "
        "their in-package importers",
    )
    lint.add_argument("--rules", action="store_true", help="print the rule catalogue")
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids or families (e.g. R2,R403)",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline file (default: LINT_baseline.json at the repo root)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true", help="ignore the baseline file"
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to suppress all current violations",
    )
    lint.add_argument("--verbose", action="store_true", help="list baselined hits too")
    return parser


def _cmd_overhead(scale, seed) -> str:
    result = run_overhead_study(scale=scale, seed=seed)
    return "\n".join(
        [
            f"baseline training cycles : {result.baseline_cycles:,.0f}",
            f"utility scoring overhead : +{result.utility_overhead_pct:.4f}%",
            f"compression overhead     : +{result.compression_overhead_pct:.4f}%",
            f"selection compute saving : -{result.compute_saving_pct:.1f}%",
            f"final accuracy           : {result.accuracy:.3f}",
        ]
    )


def _cmd_scalability(scale, seed) -> str:
    points = run_scalability(scale=scale, seed=seed)
    rows = [
        [str(p.num_clients), f"{p.adafl_accuracy:.3f}", f"{p.fedavg_accuracy:.3f}",
         str(p.adafl_updates), f"{100 * p.byte_saving:.1f}%"]
        for p in points
    ]
    return format_table(["N", "AdaFL acc", "FedAvg acc", "AdaFL updates", "bytes saved"], rows)


def _cmd_population(args) -> str:
    import tempfile

    from repro.experiments.scalability import run_population_smoke

    spill_dir = args.spill_dir
    if args.mode == "spill" and spill_dir is None:
        spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
    stats = run_population_smoke(
        num_clients=args.clients,
        rounds=args.rounds,
        cohort=args.cohort,
        mode=args.mode,
        spill_dir=spill_dir,
        engine=args.engine,
        seed=args.seed,
    )
    lines = [
        f"{args.engine} run over {stats['num_clients']:,} virtual clients "
        f"({stats['rounds']} rounds, cohort {stats['cohort']}, {stats['mode']})",
        f"uploads applied          : {stats['total_uploads']}",
        f"final accuracy           : {stats['final_accuracy']:.3f}",
        f"materializations         : {stats['materializations']} "
        f"({stats['restores']} restored, {stats['evictions']} evicted)",
        f"peak live clients        : {stats['peak_live']} "
        f"(cap {stats['max_live']}, {format_bytes(stats['peak_live_nbytes'])})",
        f"descriptor overhead      : "
        f"{stats['descriptor_bytes_per_client']:.1f} B/client "
        f"({format_bytes(stats['descriptor_nbytes'])} total)",
        f"rebuild determinism      : "
        f"{stats['sampled_rebuilds_verified']} sampled ids verified",
    ]
    return "\n".join(lines)


def _cmd_ablation(scale, seed) -> str:
    points = run_ablation(scale=scale, seed=seed)
    rows = [
        [p.variant, f"{p.accuracy:.3f}", str(p.updates), format_bytes(p.bytes_up)]
        for p in points
    ]
    return format_table(["variant", "accuracy", "updates", "uplink"], rows)


# The paper's figures / tables and the extension studies: name ->
# (help, render(scale, seed)).
_STUDIES = {
    "fig1": ("Figure 1: empirical resiliency study",
             lambda scale, seed: format_panels(run_fig1(scale=scale, seed=seed))),
    "fig3": ("Figure 3: AdaFL vs SOTA curves",
             lambda scale, seed: format_panels(run_fig3(scale=scale, seed=seed))),
    "table1": ("Table I: synchronous results", lambda scale, seed: render_table(
        run_table1(scale=scale, seed=seed), "Table I (synchronous)")),
    "table2": ("Table II: asynchronous results", lambda scale, seed: render_table(
        run_table2(scale=scale, seed=seed), "Table II (asynchronous)")),
    "overhead": ("Q3: Pi-cluster cycle overhead", _cmd_overhead),
    "scalability": ("20-100 client sweep", _cmd_scalability),
    "ablation": ("AdaFL design-choice ablation", _cmd_ablation),
}


def _jsonl_trace(path):
    """A context yielding an event trace that writes JSONL to ``path``
    (``None`` when there is no path)."""
    if not path:
        return nullcontext()
    from repro.sim import EventTrace, JsonlSink

    return EventTrace([JsonlSink(path)])


def _run_summary(result, label, out=None, trace=None) -> str:
    """The run result block: curve, totals, output paths."""
    if out:
        save_run_result(result, out)
    rounds, accs = result.accuracy_curve()
    lines = [
        format_series(label, rounds, accs),
        f"final accuracy: {result.final_accuracy:.3f}",
        f"client updates: {result.total_uploads}",
        f"uplink volume : {format_bytes(result.total_bytes_up)}",
    ]
    if trace:
        lines.append(f"trace written : {trace}")
    return "\n".join(lines)


def _compile(args, scale):
    """Flags -> what the command runs: a :class:`RunSpec` (``quickrun``,
    ``serve``, ``run``) or a ``SweepConfig``.  A ``ValueError`` from here
    is a usage error, reported the way argparse reports its own."""
    if args.command == "sweep":
        from repro.experiments.sweep import SweepConfig

        axes = {
            axis: tuple(getattr(args, axis))
            for axis in ("strategies", "networks", "faults")
            if getattr(args, axis)
        }
        return SweepConfig(
            scale=args.scale, dataset=args.dataset, model=args.model,
            distribution=args.distribution, seed=args.seed, reference=args.reference,
            rounds=args.rounds, max_sim_time_s=args.max_sim_time_s,
            eval_every=args.eval_every, **axes,
        )
    if args.command == "run":
        spec = RunSpec.from_json(Path(args.spec).read_text())
    else:
        if args.rounds is not None:
            scale = replace(scale, num_rounds=args.rounds)
        if args.command == "serve":
            how = {"transport": "tcp", "num_workers": args.workers, "quorum_frac": args.quorum}
        else:
            how = {"transport": args.transport, "num_workers": args.workers}
        if args.engine == "async":
            # Same total update budget a full-participation sync run
            # would have, so --rounds bounds async runs too.
            how["max_updates"] = scale.num_rounds * scale.num_clients
        spec = RunSpec.of(
            scale, args.seed, dataset=args.dataset, model=args.model,
            distribution=args.distribution, engine=args.engine, strategy=args.method, **how,
        )
    if spec.transport == "tcp" and getattr(args, "snapshot", None):
        raise ValueError("transport tcp does not support --snapshot")
    return spec


def _cmd_run(args, spec) -> str:
    """``quickrun``, ``run`` and ``serve``: one spec, start to finish."""
    if args.command == "serve":  # wait for external workers instead of spawning them

        def announce(address: str) -> None:
            print(f"listening on {address}")
            print(f"waiting for {args.workers} worker(s): repro worker --connect {address}")

        how = {"address": args.listen, "ready_timeout_s": args.ready_timeout_s,
               "external": announce}
    else:
        how = {"snapshot_path": args.snapshot,
               "snapshot_every": getattr(args, "snapshot_every", None)}
    with _jsonl_trace(args.trace) as trace:
        result = run(spec, trace=trace, **how)
    return _run_summary(result, spec.strategy.name, args.out, args.trace)


def _cmd_worker(args) -> int:
    """Run one worker process to completion; returns its exit code."""
    from repro.transport import Worker

    worker = Worker(args.connect, index=args.index, idle_exit_s=args.idle_exit_s)
    return worker.run()


def _cmd_sweep(args, config) -> str:
    from repro.experiments.sweep import render_sweep, run_sweep

    result = run_sweep(config, progress=print)
    if args.out:
        result.save(args.out)
    out = render_sweep(result)
    if args.out:
        out += f"\nartifact written : {args.out}"
    return out


def _cmd_chaos(args) -> str:
    from repro.experiments.chaos import format_chaos_report, run_chaos_study

    outcomes = run_chaos_study(
        scale=get_scale(args.scale), seed=args.seed, engine=args.engine, dataset=args.dataset
    )
    return format_chaos_report(outcomes)


def _cmd_report(args) -> str:
    from repro.experiments.report_html import write_report
    from repro.fl.persist import load_run_result

    runs = {Path(p).stem: load_run_result(p) for p in args.runs}
    return f"wrote {write_report(runs, args.out, artifacts_dir=args.artifacts)}"


def _cmd_resume(args) -> str:
    from repro.fl.snapshot import load_snapshot

    with _jsonl_trace(args.trace) as trace:
        result = load_snapshot(args.snapshot, trace=trace).resume()
    summary = _run_summary(result, result.method, args.out)
    return f"resumed {result.method} from {args.snapshot}\n{summary}"


def _cmd_trace(args) -> str:
    from repro.sim import format_summary, load_trace, summarize_trace

    events = load_trace(args.path)
    out = [format_summary(summarize_trace(events))]
    if args.client is not None:
        out.append("")
        out.append(f"timeline for client {args.client}:")
        for ev in events:
            if ev.client != args.client:
                continue
            extra = " ".join(f"{k}={ev.data[k]}" for k in sorted(ev.data))
            out.append(f"  t={ev.t:>10.3f}  {ev.type:<14} {extra}".rstrip())
    return "\n".join(out)


def _cmd_wire(args) -> str:
    from repro.sim import DOWNLINK_END, DROPPED, SELECTED, UPLINK_END, load_trace
    from repro.wire import FRAME_OVERHEAD

    events = load_trace(args.path)
    legs = {"uplink": 0, "downlink": 0}
    payload = {"uplink": 0, "downlink": 0}
    framed = {"uplink": 0, "downlink": 0}
    codec_mix: dict[str, int] = {}
    unframed = 0
    mismatched = 0
    crc_failures = 0
    rounds = 0
    for ev in events:
        if ev.type == SELECTED:
            rounds += 1
        elif ev.type == DROPPED and ev.data.get("reason") == "corrupt_frame":
            crc_failures += 1
        elif ev.type in (UPLINK_END, DOWNLINK_END):
            leg = "uplink" if ev.type == UPLINK_END else "downlink"
            legs[leg] += 1
            nbytes = int(ev.data.get("nbytes", 0))
            payload[leg] += nbytes
            frame_len = ev.data.get("frame_len")
            if frame_len is None:
                unframed += 1
                continue
            framed[leg] += int(frame_len)
            codec = str(ev.data.get("codec", "?"))
            codec_mix[codec] = codec_mix.get(codec, 0) + 1
            # The charged bytes are the analytic prediction; the frame
            # carries the exact payload.  They must agree to the byte.
            if int(frame_len) - nbytes != FRAME_OVERHEAD:
                mismatched += 1
    lines = []
    total_payload = payload["uplink"] + payload["downlink"]
    total_framed = framed["uplink"] + framed["downlink"]
    header_bytes = total_framed - total_payload if total_framed else 0
    for leg in ("uplink", "downlink"):
        lines.append(
            f"{leg:<8} legs: {legs[leg]:>6}   charged {format_bytes(payload[leg])}, "
            f"framed {format_bytes(framed[leg])}"
        )
    if rounds:
        lines.append(f"rounds observed     : {rounds}")
    if codec_mix:
        mix = ", ".join(f"{c}={n}" for c, n in sorted(codec_mix.items()))
        lines.append(f"codec mix           : {mix}")
    if total_payload:
        lines.append(
            f"header overhead     : {format_bytes(header_bytes)} "
            f"({100.0 * header_bytes / total_payload:.3f}% of payload)"
        )
    lines.append(
        "exact == predicted  : "
        + ("yes (every framed leg)" if mismatched == 0 else f"NO — {mismatched} mismatched leg(s)")
    )
    lines.append(f"CRC failures        : {crc_failures} (dropped as corrupt_frame)")
    if unframed:
        lines.append(f"unframed legs       : {unframed} (trace predates the wire layer)")
    return "\n".join(lines)


def _cmd_lint(args) -> int:
    from repro.analysis import (
        default_baseline_path,
        default_lint_paths,
        default_src_root,
        exit_code,
        lint_diff,
        render_catalogue,
        render_json,
        render_sarif,
        render_text,
        run_lint,
        save_baseline,
    )
    from repro.analysis.runner import EXIT_CLEAN, EXIT_ERROR

    if args.rules:
        print(render_catalogue())
        return EXIT_CLEAN
    paths = [Path(p) for p in args.paths] if args.paths else default_lint_paths()
    baseline = None
    if not args.no_baseline:
        baseline = (
            Path(args.baseline) if args.baseline else default_baseline_path()
        )
    select = args.select.split(",") if args.select else None
    try:
        if args.diff:
            result = lint_diff(
                args.diff, paths=paths, select=select, baseline_path=baseline
            )
        else:
            result = run_lint(
                paths,
                src_root=default_src_root(),
                select=select,
                baseline_path=baseline,
            )
    except Exception as exc:  # unreadable input / broken baseline / bad ref
        print(f"lint error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.update_baseline:
        target = baseline if baseline is not None else default_baseline_path()
        save_baseline(target, result.violations)
        print(f"baseline updated: {target} ({len(result.violations)} entries)")
        return EXIT_CLEAN
    fmt = args.format or ("json" if args.json else "text")
    if fmt == "json":
        print(render_json(result))
    elif fmt == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, args.verbose))
    return exit_code(result)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("lint", "worker"):
        return {"lint": _cmd_lint, "worker": _cmd_worker}[args.command](args)
    scale = get_scale(args.scale)
    plain = {"population": _cmd_population, "report": _cmd_report, "trace": _cmd_trace,
             "wire": _cmd_wire, "chaos": _cmd_chaos, "resume": _cmd_resume}
    if args.command in _STUDIES:
        print(_STUDIES[args.command][1](scale, args.seed))
    elif args.command in plain:
        print(plain[args.command](args))
    else:  # quickrun / run / serve / sweep describe a run: compile it first
        try:
            compiled = _compile(args, scale)
        except (ValueError, OSError) as exc:  # a bad spec / sweep / spec file
            parser.error(str(exc))
        print((_cmd_sweep if args.command == "sweep" else _cmd_run)(args, compiled))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
