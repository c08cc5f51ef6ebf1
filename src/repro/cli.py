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
    python -m repro trace run.jsonl
    python -m repro sweep --strategies fedavg afd adagq \
        --networks constrained --rounds 20 --out sweep.json
"""

from __future__ import annotations

import argparse
import sys

from repro.core.adafl import AdaFLSync
from repro.experiments.ablation import run_ablation
from repro.experiments.comparison import default_adafl_config, run_fig3
from repro.experiments.empirical import run_fig1
from repro.experiments.overhead import run_overhead_study
from repro.experiments.presets import get_scale
from repro.experiments.reporting import format_bytes, format_series, format_table
from repro.experiments.runner import FederationSpec, format_panels, run_async, run_sync
from repro.experiments.scalability import run_scalability
from repro.experiments.tables import render_table, run_table1, run_table2
from repro.fl.baselines import ASYNC_BASELINES, SYNC_BASELINES
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

    sub.add_parser("fig1", help="Figure 1: empirical resiliency study")
    sub.add_parser("fig3", help="Figure 3: AdaFL vs SOTA curves")
    sub.add_parser("table1", help="Table I: synchronous results")
    sub.add_parser("table2", help="Table II: asynchronous results")
    sub.add_parser("overhead", help="Q3: Pi-cluster cycle overhead")
    sub.add_parser("scalability", help="20-100 client sweep")
    sub.add_parser("ablation", help="AdaFL design-choice ablation")

    pop = sub.add_parser(
        "population",
        help="virtual-population smoke: a 100k-client round in O(active) memory",
    )
    pop.add_argument("--clients", type=int, default=100_000)
    pop.add_argument("--rounds", type=int, default=2)
    pop.add_argument("--cohort", type=int, default=20)
    pop.add_argument("--mode", default="regenerate", choices=("regenerate", "spill"))
    pop.add_argument("--spill-dir", default=None, help="blob directory for spill mode")
    pop.add_argument("--engine", default="sync", choices=("sync", "async"))

    report = sub.add_parser("report", help="build an HTML report from saved runs")
    report.add_argument("--runs", nargs="+", required=True, help="run JSON files")
    report.add_argument("--out", default="report.html")
    report.add_argument("--artifacts", default=None, help="benchmarks/results dir to embed")

    quick = sub.add_parser("quickrun", help="one federated run (sync or async)")
    quick.add_argument("--dataset", default="mnist", choices=("mnist", "cifar10", "cifar100"))
    quick.add_argument("--model", default="mnist_cnn")
    quick.add_argument("--distribution", default="iid", choices=("iid", "shard", "dirichlet", "label_skew", "quantity_skew"))
    quick.add_argument(
        "--method",
        default="adafl",
        choices=("adafl", *sorted(SYNC_BASELINES), *sorted(ASYNC_BASELINES)),
    )
    quick.add_argument("--engine", default="sync", choices=("sync", "async"))
    quick.add_argument("--rounds", type=int, default=None)
    quick.add_argument("--out", default=None, help="write run JSON here")
    quick.add_argument("--trace", default=None, help="record the event trace as JSONL here")
    quick.add_argument(
        "--snapshot", default=None,
        help="write crash-safe run snapshots here (resume with `repro resume`)",
    )
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

    serve = sub.add_parser(
        "serve",
        help="federated server over sockets; workers dial in with `repro worker`",
    )
    serve.add_argument("--listen", default="127.0.0.1:0", help="host:port or unix:/path")
    serve.add_argument("--workers", type=int, default=4, help="worker slots to wait for")
    serve.add_argument("--dataset", default="mnist", choices=("mnist", "cifar10", "cifar100"))
    serve.add_argument("--model", default="mnist_cnn")
    serve.add_argument("--distribution", default="iid", choices=("iid", "shard", "dirichlet", "label_skew", "quantity_skew"))
    serve.add_argument(
        "--method",
        default="adafl",
        choices=("adafl", *sorted(SYNC_BASELINES), *sorted(ASYNC_BASELINES)),
    )
    serve.add_argument("--engine", default="sync", choices=("sync", "async"))
    serve.add_argument("--rounds", type=int, default=None)
    serve.add_argument("--quorum", type=float, default=None, help="quorum fraction (sync)")
    serve.add_argument("--out", default=None, help="write run JSON here")
    serve.add_argument("--trace", default=None, help="record the event trace as JSONL here")
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
        help="strategy × network × fault grid with a comparison artifact",
    )
    sweep.add_argument(
        "--strategies", nargs="+", default=None,
        help="strategy names to sweep (see repro.experiments.sweep registries)",
    )
    sweep.add_argument("--networks", nargs="+", default=None, help="network profile names")
    sweep.add_argument("--faults", nargs="+", default=None, help="fault plan names")
    sweep.add_argument("--dataset", default="mnist", choices=("mnist", "cifar10", "cifar100"))
    sweep.add_argument("--model", default="mnist_cnn")
    sweep.add_argument(
        "--distribution", default="iid",
        choices=("iid", "shard", "dirichlet", "label_skew", "quantity_skew"),
    )
    sweep.add_argument("--reference", default="fedavg", help="baseline strategy per cell")
    sweep.add_argument("--rounds", type=int, default=None, help="override the scale's rounds")
    sweep.add_argument(
        "--max-sim-time-s", type=float, default=None,
        help="override the scale's simulated-time budget",
    )
    sweep.add_argument("--eval-every", type=int, default=None)
    sweep.add_argument("--out", default=None, help="write the JSON comparison artifact here")

    chaos = sub.add_parser("chaos", help="fault-matrix smoke study + resilience report")
    chaos.add_argument("--engine", default="sync", choices=("sync", "async"))
    chaos.add_argument("--dataset", default="mnist", choices=("mnist", "cifar10", "cifar100"))

    resume = sub.add_parser("resume", help="finish a snapshotted run (crash recovery)")
    resume.add_argument("--snapshot", required=True, help="snapshot file written by a run")
    resume.add_argument("--out", default=None, help="write the completed run JSON here")
    resume.add_argument("--trace", default=None, help="record post-resume events as JSONL here")

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


def _cmd_population(args, seed) -> str:
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
        seed=seed,
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


def _quickrun_strategy(args, scale):
    """Resolve ``--method``/``--engine`` into a strategy instance."""
    if args.engine == "async":
        if args.method == "adafl":
            from repro.core.adafl import AdaFLAsync

            return AdaFLAsync(default_adafl_config(scale, async_mode=True))
        if args.method in ASYNC_BASELINES:
            return ASYNC_BASELINES[args.method]()
        raise SystemExit(f"method {args.method!r} is synchronous; use --engine sync")
    if args.method in ASYNC_BASELINES:
        raise SystemExit(f"method {args.method!r} is asynchronous; use --engine async")
    if args.method == "adafl":
        return AdaFLSync(default_adafl_config(scale))
    return SYNC_BASELINES[args.method]()


def _run_summary(args, result) -> str:
    """The quickrun/serve result block: curve, totals, output paths."""
    if args.out:
        save_run_result(result, args.out)
    rounds, accs = result.accuracy_curve()
    lines = [
        format_series(args.method, rounds, accs),
        f"final accuracy: {result.final_accuracy:.3f}",
        f"client updates: {result.total_uploads}",
        f"uplink volume : {format_bytes(result.total_bytes_up)}",
    ]
    if args.trace:
        lines.append(f"trace written : {args.trace}")
    return "\n".join(lines)


def _cmd_quickrun(args, scale) -> str:
    from dataclasses import replace

    if args.rounds is not None:
        scale = replace(scale, num_rounds=args.rounds)
    remote = args.transport == "tcp"
    if remote and args.snapshot:
        raise SystemExit("--transport tcp does not support --snapshot")
    spec = FederationSpec(
        dataset=args.dataset,
        model=args.model,
        distribution=args.distribution,
        scale=scale,
        seed=args.seed,
    )
    strategy = _quickrun_strategy(args, scale)
    trace = None
    if args.trace:
        from repro.sim import EventTrace, JsonlSink

        trace = EventTrace([JsonlSink(args.trace)])
    try:
        if args.engine == "async":
            # Same total update budget a full-participation sync run
            # would have, so --rounds bounds async runs too.
            budget = scale.num_rounds * scale.num_clients
            if remote:
                from repro.experiments.socket_run import run_async_sockets

                result = run_async_sockets(
                    spec, strategy, max_updates=budget, trace=trace,
                    num_workers=args.workers,
                )
            else:
                result = run_async(
                    spec, strategy, max_updates=budget, trace=trace,
                    snapshot_path=args.snapshot, snapshot_every=args.snapshot_every,
                )
        else:
            if remote:
                from repro.experiments.socket_run import run_sync_sockets

                result = run_sync_sockets(
                    spec, strategy, trace=trace, num_workers=args.workers
                )
            else:
                result = run_sync(
                    spec, strategy, trace=trace,
                    snapshot_path=args.snapshot, snapshot_every=args.snapshot_every,
                )
    finally:
        if trace is not None:
            trace.close()
    return _run_summary(args, result)


def _cmd_serve(args, scale) -> str:
    """Open a socket server, wait for external workers, run the federation."""
    import dataclasses

    from repro.experiments.runner import _federation_config, build_federation
    from repro.fl.async_engine import AsyncEngine
    from repro.fl.sync_engine import SyncEngine
    from repro.transport import SocketTransport, WorkerSetup

    if args.rounds is not None:
        scale = dataclasses.replace(scale, num_rounds=args.rounds)
    spec = FederationSpec(
        dataset=args.dataset,
        model=args.model,
        distribution=args.distribution,
        scale=scale,
        seed=args.seed,
    )
    strategy = _quickrun_strategy(args, scale)
    budget = scale.num_rounds * scale.num_clients if args.engine == "async" else None
    config = _federation_config(spec, max_updates=budget)
    if args.quorum is not None:
        config = dataclasses.replace(config, quorum_frac=args.quorum)
    setup = WorkerSetup(
        builder=build_federation, builder_arg=spec, strategy=strategy, config=config
    )
    transport = SocketTransport(
        args.listen,
        num_workers=args.workers,
        num_clients=scale.num_clients,
        setup=setup,
    )
    trace = None
    if args.trace:
        from repro.sim import EventTrace, JsonlSink

        trace = EventTrace([JsonlSink(args.trace)])
    try:
        print(f"listening on {transport.address}")
        print(
            f"waiting for {args.workers} worker(s): "
            f"repro worker --connect {transport.address}"
        )
        transport.wait_ready(args.ready_timeout_s)
        fed = build_federation(spec)
        engine_cls = AsyncEngine if args.engine == "async" else SyncEngine
        engine = engine_cls(
            fed.server, None, strategy, config, trace=trace, transport=transport
        )
        result = engine.run()
    finally:
        transport.close()
        if trace is not None:
            trace.close()
    return _run_summary(args, result)


def _cmd_worker(args) -> int:
    """Run one worker process to completion; returns its exit code."""
    from repro.transport import Worker

    worker = Worker(args.connect, index=args.index, idle_exit_s=args.idle_exit_s)
    return worker.run()


def _cmd_sweep(args) -> str:
    from repro.experiments.sweep import SweepConfig, render_sweep, run_sweep

    kwargs: dict = {
        "scale": args.scale,
        "dataset": args.dataset,
        "model": args.model,
        "distribution": args.distribution,
        "seed": args.seed,
        "reference": args.reference,
        "rounds": args.rounds,
        "max_sim_time_s": args.max_sim_time_s,
        "eval_every": args.eval_every,
    }
    if args.strategies:
        kwargs["strategies"] = tuple(args.strategies)
    if args.networks:
        kwargs["networks"] = tuple(args.networks)
    if args.faults:
        kwargs["faults"] = tuple(args.faults)
    config = SweepConfig(**kwargs)
    result = run_sweep(config, progress=print)
    if args.out:
        result.save(args.out)
    out = render_sweep(result)
    if args.out:
        out += f"\nartifact written : {args.out}"
    return out


def _cmd_chaos(args, scale) -> str:
    from repro.experiments.chaos import format_chaos_report, run_chaos_study

    outcomes = run_chaos_study(
        scale=scale, seed=args.seed, engine=args.engine, dataset=args.dataset
    )
    return format_chaos_report(outcomes)


def _cmd_resume(args) -> str:
    from repro.experiments.reporting import format_bytes, format_series
    from repro.fl.snapshot import load_snapshot

    trace = None
    if args.trace:
        from repro.sim import EventTrace, JsonlSink

        trace = EventTrace([JsonlSink(args.trace)])
    try:
        engine = load_snapshot(args.snapshot, trace=trace)
        result = engine.resume()
    finally:
        if trace is not None:
            trace.close()
    if args.out:
        save_run_result(result, args.out)
    rounds, accs = result.accuracy_curve()
    lines = [
        f"resumed {result.method} from {args.snapshot}",
        format_series(result.method, rounds, accs),
        f"final accuracy: {result.final_accuracy:.3f}",
        f"client updates: {result.total_uploads}",
        f"uplink volume : {format_bytes(result.total_bytes_up)}",
    ]
    return "\n".join(lines)


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
    from pathlib import Path

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
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "worker":
        return _cmd_worker(args)
    scale = get_scale(args.scale)
    if args.command == "serve":
        print(_cmd_serve(args, scale))
        return 0
    if args.command == "fig1":
        print(format_panels(run_fig1(scale=scale, seed=args.seed)))
    elif args.command == "fig3":
        print(format_panels(run_fig3(scale=scale, seed=args.seed)))
    elif args.command == "table1":
        rows = run_table1(scale=scale, seed=args.seed)
        print(render_table(rows, "Table I (synchronous)"))
    elif args.command == "table2":
        rows = run_table2(scale=scale, seed=args.seed)
        print(render_table(rows, "Table II (asynchronous)"))
    elif args.command == "overhead":
        print(_cmd_overhead(scale, args.seed))
    elif args.command == "scalability":
        print(_cmd_scalability(scale, args.seed))
    elif args.command == "population":
        print(_cmd_population(args, args.seed))
    elif args.command == "ablation":
        print(_cmd_ablation(scale, args.seed))
    elif args.command == "report":
        from pathlib import Path

        from repro.experiments.report_html import write_report
        from repro.fl.persist import load_run_result

        runs = {Path(p).stem: load_run_result(p) for p in args.runs}
        path = write_report(runs, args.out, artifacts_dir=args.artifacts)
        print(f"wrote {path}")
    elif args.command == "quickrun":
        print(_cmd_quickrun(args, scale))
    elif args.command == "trace":
        print(_cmd_trace(args))
    elif args.command == "wire":
        print(_cmd_wire(args))
    elif args.command == "sweep":
        print(_cmd_sweep(args))
    elif args.command == "chaos":
        print(_cmd_chaos(args, scale))
    elif args.command == "resume":
        print(_cmd_resume(args))
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.command)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
