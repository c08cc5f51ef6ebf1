"""One benchmark run in a fresh process.

`run.py` starts this file once per (workload, repetition) so that
`ru_maxrss` and import/set-up cost belong to that run alone.  It drives
one workload through the program's public API, measures it from
outside, checks the result, and prints one JSON object as the last
line of its standard output.
"""

from __future__ import annotations

import time

_T_IMPORT = time.monotonic()

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import spans
from workloads import by_name


class LegTap:
    """Trace sink counting client legs and their outcomes.

    A leg is one client attempt: a model broadcast that was lost, or
    one local training with its upload.  It ends dropped (lost in
    transit), rejected (refused by server validation) or delivered
    (listed in an `aggregated` event) — the conservation law the run is
    checked against, counted independently of the program's own
    `MetricsReducer`.
    """

    def __init__(self, counted, rejected, frame_overhead):
        self._counted, self._rejected, self._overhead = counted, rejected, frame_overhead
        self.mode = None
        self.legs = self.selected = self.delivered = self.dropped = self.rejected = 0
        self.upload_frame_bytes = 0
        self._frame_len = {}  # client -> framed length of its last good upload

    def emit(self, event) -> None:
        kind, data = event.type, event.data
        if kind == "train_start":
            self.legs += 1
        elif kind == "uplink_end":
            if data.get("ok", True):
                self._frame_len[event.client] = data["frame_len"]
        elif kind == "dropped":
            reason = data.get("reason")
            if reason in self._counted:
                self.dropped += 1
                if reason == "downlink_lost":
                    self.legs += 1
            elif reason in self._rejected:
                self.rejected += 1
        elif kind == "aggregated":
            for cid in data.get("participants", (event.client,)):
                self.delivered += 1
                self.upload_frame_bytes += self._frame_len[cid] - self._overhead
        elif kind == "selected":
            self.selected += len(data["clients"])
        elif kind == "run_start":
            self.mode = data["mode"]

    def close(self) -> None:
        pass


class RunProbe:
    """Times the measured region and keeps hold of the engine and result.

    `Engine.run` is wrapped on both engine classes: whichever entry
    point the workload goes through, the wrapper attaches the leg tap
    to the engine's trace bus and, unless the workload is timed whole,
    marks "engine ready" and "run returned".
    """

    def __init__(self, recorder, tap):
        self.recorder, self.tap = recorder, tap
        self.t_ready = self.t_done = None
        self.engine = self.result = None

    @contextmanager
    def region(self):
        self.t_ready = time.monotonic()
        with self.recorder.root() if self.recorder is not None else nullcontext():
            yield
        self.t_done = time.monotonic()

    def hook(self, engine_cls):
        run, probe = engine_cls.run, self

        def probed_run(engine):
            engine.trace.add_sink(probe.tap)
            probe.engine = engine
            with probe.region() if probe.t_ready is None else nullcontext():
                probe.result = run(engine)
            return probe.result

        engine_cls.run = probed_run


def _digest(result, tap, sim_time_s) -> str:
    """Hash of everything a run is supposed to reproduce exactly."""
    rounds, accs = result.accuracy_curve()
    blob = json.dumps(
        {
            "accuracy": [[int(r), float(a).hex()] for r, a in zip(rounds, accs)],
            "total_uploads": int(result.total_uploads),
            "uplink_bytes": int(result.total_bytes_up),
            "sim_time_s": float(sim_time_s).hex(),
            "dropped": tap.dropped,
            "rejected": tap.rejected,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(agg, counts, wall_s, result, tap, population, children_cpu_s) -> dict:
    """The `per_layer` metrics of BENCHMARK.json from one traced run.

    ``children_cpu_s`` is the CPU time of reaped child processes; it is
    worker time only on a run that made RPCs (numpy's import also
    starts short-lived children).
    """

    def self_s(*names):
        return sum(agg[n]["self_s"] for n in names)

    def calls(*names):
        return sum(agg[n]["calls"] for n in names)

    rpc_names = [f"transport.rpc.{op}" for op in spans.RPC_OPS]
    kernel = ("sim.kernel.downlink", "sim.kernel.uplink", "sim.kernel.compute")
    fused = counts["fl.batched.fused"]
    trained = fused + calls("fl.client.train", "transport.rpc.train")
    stats = getattr(population, "stats", None)
    virtual = stats is not None and not population.always_live
    lookups = calls("fl.population.client")
    metrics = {
        "nn.forward_s": self_s("nn.forward"),
        "nn.backward_s": self_s("nn.backward"),
        "nn.optim_s": self_s("nn.optim"),
        "nn.flat_s": self_s("nn.flat"),
        "nn.fwd_calls": calls("nn.forward"),
        "nn.samples": counts["nn.samples"],
        "nn.batched_s": self_s("nn.batched"),
        "fl.batched.glue_s": self_s("fl.batched.glue"),
        "fl.batched.fused_frac": _frac(fused, trained),
        "fl.client.train_s": self_s("fl.client.train"),
        "fl.client.probe_s": self_s("fl.client.probe"),
        "compression.compress_s": self_s("compression.compress"),
        "compression.decompress_s": self_s("compression.decompress"),
        "compression.calls": calls("compression.compress"),
        "compression.kept_frac": _frac(counts["compression.kept"], counts["compression.dim"]),
        "wire.encode_s": self_s("wire.encode", "wire.encode_model"),
        "wire.decode_s": self_s("wire.decode"),
        "wire.frames": calls("wire.encode", "wire.encode_model", "wire.decode"),
        "wire.bytes": counts["wire.bytes"],
        "wire.model_encodes_per_downlink": _frac(
            calls("wire.encode_model"), calls("sim.kernel.downlink")
        ),
        "fl.server.aggregate_s": self_s("fl.server.aggregate"),
        "fl.server.evaluate_s": self_s("fl.server.evaluate"),
        "fl.server.final_accuracy": float(result.final_accuracy),
        "fl.validation.screen_s": self_s("fl.validation.screen"),
        "fl.validation.rejected": tap.rejected,
        "core.select_s": self_s("core.select"),
        "core.selected_frac": _frac(counts["core.selected"], counts["core.available"]),
        "fl.engine.self_s": self_s(spans.ROOT),
        "fl.engine.steps": len(result.records),
        "fl.engine.us_per_update": _frac(wall_s * 1e6, result.total_uploads),
        "sim.kernel_s": self_s(*kernel),
        "sim.trace_emit_s": self_s("sim.trace_emit"),
        "sim.events": calls("sim.trace_emit"),
        "network.transfer_s": self_s("network.transfer"),
        "network.transfers": calls("network.transfer"),
        "network.lost_frac": _frac(counts["network.lost"], calls("network.transfer")),
        "fl.population.materialize_s": self_s("fl.population.client", "fl.population.factory"),
        "fl.population.evict_s": self_s("fl.population.evict"),
        "fl.population.materializations": stats.materializations if virtual else 0,
        "fl.population.evictions": stats.evictions if virtual else 0,
        "fl.population.live_hit_ratio": (
            1.0 - _frac(stats.materializations, lookups) if virtual else 0.0
        ),
        "data.synth_s": self_s("data.synth"),
        "transport.rpc_s": self_s(*rpc_names),
        **{f"{name}_s": self_s(name) for name in rpc_names},
        "transport.rpcs": calls(*rpc_names),
        "transport.retries": calls("transport.retry"),
        "transport.worker_cpu_s": children_cpu_s if calls(*rpc_names) else 0.0,
        "trace.coverage_frac": 1.0 - _frac(self_s(spans.ROOT), wall_s),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--twin", action="store_true",
                        help="run the workload's in-memory twin instead")
    parser.add_argument("--smoke", action="store_true", help="counts / 10")
    parser.add_argument("--spans-out", type=Path, help="write the raw spans here")
    args = parser.parse_args(argv)

    t_spawn = float(os.environ.get("E2E_T_SPAWN", _T_IMPORT))
    workload = by_name(args.workload)
    params = dict(workload.params)
    if args.smoke:
        # Not below the presets' largest eval_every, so accuracy exists.
        params["steps"] = max(4, params["steps"] // 10)
    drive = workload.twin if args.twin else workload.run

    import numpy
    from repro.fl.async_engine import AsyncEngine
    from repro.fl.sync_engine import SyncEngine
    from repro.sim.trace import COUNTED_DROP_REASONS, REJECTED_DROP_REASONS
    from repro.wire.frame import FRAME_OVERHEAD

    recorder = spans.Recorder() if args.trace else None
    tap = LegTap(COUNTED_DROP_REASONS, REJECTED_DROP_REASONS, FRAME_OVERHEAD)
    probe = RunProbe(recorder, tap)
    probe.hook(SyncEngine)
    probe.hook(AsyncEngine)
    if recorder is not None:
        spans.install(recorder)

    with probe.region() if workload.timed_whole else nullcontext():
        drive(params, args.seed)

    if recorder is not None:
        spans.uninstall(recorder)
    result, engine = probe.result, probe.engine
    wall_s = probe.t_done - probe.t_ready
    accuracy = float(result.final_accuracy)
    uplink_bytes = int(result.total_bytes_up)
    outcomes = tap.delivered + tap.dropped + tap.rejected
    # An asynchronous run stops with at most one leg per client in flight.
    in_flight_max = len(engine.clients) if tap.mode == "async" else 0

    failures = []
    if tap.upload_frame_bytes != uplink_bytes:
        failures.append(
            f"upload frames carry {tap.upload_frame_bytes} B, records say {uplink_bytes} B"
        )
    if not 0 <= tap.legs - outcomes <= in_flight_max:
        failures.append(
            f"{tap.legs} legs but {tap.delivered} delivered + {tap.dropped} dropped"
            f" + {tap.rejected} rejected"
        )
    if tap.mode == "sync" and tap.selected != tap.legs:
        failures.append(f"{tap.selected} clients selected but {tap.legs} legs ran")
    floor = 0.0 if args.smoke else workload.accuracy_floor
    if not (math.isfinite(accuracy) and accuracy >= floor):
        failures.append(f"final accuracy {accuracy} is below the floor {floor}")

    out = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "twin": args.twin,
        "params": params,
        "setup_s": probe.t_ready - t_spawn,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "uplink_bytes": uplink_bytes,
        "sim_time_s": float(engine.sim_time_s),
        "delivered_frac": 1.0 - _frac(tap.dropped + tap.rejected, tap.legs),
        "final_accuracy": accuracy,
        "legs": tap.legs,
        "delivered": tap.delivered,
        "dropped": tap.dropped,
        "rejected": tap.rejected,
        "digest": _digest(result, tap, engine.sim_time_s),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if recorder is not None:
        agg = spans.self_times(recorder.spans, recorder.names)
        if not args.smoke and not args.twin:
            failures += [
                f"span {name!r} had no hits, but {workload.name} exists to load it: "
                + ", ".join(str(t) for t in spans.TABLE if t.span == name)
                for name in workload.dominant
                if agg[name]["calls"] == 0
            ]
        # Worker processes are reaped when the socket session closes.
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        out["layers"] = layer_metrics(
            agg, recorder.counts, wall_s, result, tap, engine.clients,
            children.ru_utime + children.ru_stime,
        )
        out["span_count"] = len(recorder.spans) // spans.SPAN_WIDTH
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            run_id = f"{workload.name}:seed{args.seed}:pid{os.getpid()}"
            with open(args.spans_out, "w") as fh:
                json.dump(
                    {"run_id": run_id, "names": recorder.names,
                     "columns": ["index", "name", "parent", "start", "end"],
                     "spans_flat": recorder.spans, "self_times": agg,
                     "counts": dict(recorder.counts)},
                    fh,
                )
    out["failures"] = failures
    print(json.dumps(out))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
