"""Hot-path microbenchmarks with a machine-readable JSON artifact.

Unlike the paper-artifact benchmarks in this directory (which go
through pytest-benchmark), this file is a plain script: it times what
no ``benchmarks/e2e`` workload's per-layer split resolves — the
Adaptive Federated Dropout upload path, one cohort trained both fused
and serial, and the linter — and writes ``BENCH_hotpath.json`` at the
repo root, so ``scripts/check_bench.py`` can gate on regressions.
Every other layer (flat parameters, local training, conv
forward/backward, DGC, the engine loop, validation, wire framing, the
fused kernel, the virtual population, the socket transport) is timed
on a whole run by the ``per_layer`` metrics ``BENCHMARK.json``
declares.

Sections
--------
``subspace``
    Parameter-subspace primitives at the MNIST-CNN dim: masked
    gather/scatter of a 40%-coverage ``ParamSubspace`` plus a full
    masked-frame round trip (QSGD inner codec) — the Adaptive
    Federated Dropout upload path.  The masked trip is asserted
    cheaper than framing the dense vector.
``fused_vs_serial``
    One warm cohort round of ``train_clients_batched`` and of the serial
    ``Client.local_train`` loop on the models the end-to-end workloads
    train (bench CNN, FAST thin CNN, FAST MLP), each asserted bit-equal
    to the other.  The timed step is the fused bench-CNN round; ``meta``
    holds every model's fused and serial times and their ratio.
``lint``
    A full-repo reprolint pass, the one ``scripts/check_lint.py``
    runs (every rule family), asserted to stay under the 5-second
    single-core developer budget.

Run directly::

    PYTHONPATH=src python benchmarks/bench_hotpath.py          # write baseline
    PYTHONPATH=src python benchmarks/bench_hotpath.py --print  # stdout only
    PYTHONPATH=src python benchmarks/bench_hotpath.py --print --section subspace
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_hotpath.json"
SCHEMA_VERSION = 1


def _time_section(fn, iters: int, warmup: int = 2) -> dict:
    """Per-iteration wall-clock stats for ``fn`` (seconds)."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(iters):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "iters": iters,
        "mean_s": float(np.mean(samples)),
        "min_s": float(np.min(samples)),
    }


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_subspace(iters: int) -> dict:
    """Masked gather/scatter plus the masked-frame upload round trip.

    The timed step is what one AFD upload costs beyond training: gather
    the covered delta coordinates, quantise them (QSGD at the covered
    dim), encode the masked frame, then server-side ``from_bytes``
    (CRC) + decode + scatter back into a dense buffer.  ``meta``
    compares the masked wire bytes against a dense float32 frame at the
    same dim — the uplink saving the strategy exists for.
    """
    from repro.compression.base import CompressedGradient
    from repro.compression.qsgd import QSGDCompressor
    from repro.nn.subspace import ParamLayoutEntry, ParamSubspace
    from repro.wire import Frame, decode_frame, encode_frame, encode_model_frame

    dim = 431_080
    keep = 0.4
    rng = np.random.default_rng(0)
    # A realistic multi-span layout (conv/fc weights + small biases).
    sizes = (800, 32, 51_200, 64, 368_640, 10, 10_240, 94)
    layout, offset = [], 0
    for i, size in enumerate(sizes):
        layout.append(ParamLayoutEntry(f"p{i}", offset, size))
        offset += size
    assert offset == dim
    sub = ParamSubspace.sample(layout, keep, rng)
    delta = rng.normal(size=dim)
    dense_out = np.zeros(dim, dtype=np.float64)
    comp = QSGDCompressor(sub.size, num_levels=16, rng=np.random.default_rng(1))
    indices_u32 = sub.indices.astype(np.uint32)

    def trip() -> bytes:
        values = sub.gather(delta)
        payload = comp.compress(values)
        frame = encode_frame(
            "masked",
            dim,
            {
                "indices": indices_u32,
                "inner_method": "qsgd",
                "inner_data": payload.data,
            },
            model_version=1,
        )
        buf = frame.to_bytes()
        _, decoded = decode_frame(Frame.from_bytes(buf))
        inner = CompressedGradient(
            method="qsgd",
            dim=sub.size,
            num_bytes=len(buf),
            data=decoded["inner_data"],
        )
        sub.scatter(comp.decompress(inner), dense_out)
        return buf

    masked_buf = trip()
    stats = _time_section(trip, iters)

    dense_bytes = len(encode_model_frame(delta, 1).to_bytes())
    assert len(masked_buf) < dense_bytes, (
        "masked QSGD upload must undercut a dense float32 frame"
    )
    stats["meta"] = {
        "d": dim,
        "keep_frac": keep,
        "covered": sub.size,
        "masked_frame_bytes": len(masked_buf),
        "dense_frame_bytes": dense_bytes,
        "wire_saving": 1.0 - len(masked_buf) / dense_bytes,
    }
    return stats


def bench_fused_vs_serial(iters: int) -> dict:
    """Fused cohort round against the serial loop, per workload model.

    Two identically built federations per model: the first fused and
    the first serial round start from equal state and are asserted
    bit-equal, then both are timed warm (trainer cached, buffers sized).
    ``fused_over_serial`` is the time ratio: below 1 the kernel wins.
    """
    from dataclasses import replace

    from repro.experiments.presets import get_scale
    from repro.experiments.runner import FederationSpec, _federation_config, build_federation
    from repro.fl.batched import train_clients_batched

    fast = get_scale("fast")
    models = {  # the workload whose model each one is
        "bench_cnn": ("bench", "mnist_cnn", 10, {}),  # adafl_sync_cnn
        "fast_thin_cnn": ("fast", "mnist_cnn", 10, {}),  # fedavg_batched_thin
        "fast_mlp": ("fast", "mlp", 20, {"train_samples": 2 * fast.train_samples}),
    }
    timed = None
    meta = {}
    for name, (preset, model, num_clients, overrides) in models.items():
        scale = replace(get_scale(preset), num_clients=num_clients, **overrides)
        spec = FederationSpec(
            dataset="mnist", model=model, distribution="shard", scale=scale, seed=0
        )
        fused_fed, serial_fed = build_federation(spec), build_federation(spec)
        config = _federation_config(spec).local
        params = fused_fed.server.params.copy()
        cache: dict = {}

        def fused(clients=fused_fed.clients, cache=cache):
            return train_clients_batched(clients, params, config, cache=cache)

        def serial(clients=serial_fed.clients):
            return [c.local_train(params, config) for c in clients]

        got = fused()
        assert got is not None, f"{name}: the fused kernel declined the cohort"
        for want in serial():
            assert np.array_equal(got[want.client_id].delta, want.delta), name
        fused_stats = _time_section(fused, iters)
        serial_s = _time_section(serial, iters)["min_s"]
        timed = timed or fused_stats
        meta[name] = {
            "clients": num_clients,
            "d": fused_fed.server.dim,
            "fused_ms": fused_stats["min_s"] * 1e3,
            "serial_ms": serial_s * 1e3,
            "fused_over_serial": fused_stats["min_s"] / serial_s,
        }
    timed["meta"] = meta
    return timed


def bench_lint(iters: int) -> dict:
    """One full-repo reprolint pass (parse + every rule family).

    The same pass ``scripts/check_lint.py`` runs.  The static checker
    rides the pre-commit/CI path, so its latency is a developer-facing
    budget: a full single-core pass over the whole package must stay
    under 5 seconds.  ``meta`` records the census so a silently
    shrinking file set cannot fake a speedup.
    """
    from repro.analysis import default_lint_paths, default_src_root, run_lint

    paths = default_lint_paths()
    src_root = default_src_root()

    result_box = {}

    def step() -> None:
        result_box["result"] = run_lint(paths, src_root)

    stats = _time_section(step, iters, warmup=1)
    assert stats["min_s"] < 5.0, (
        f"full-repo lint pass took {stats['min_s']:.2f}s; budget is 5s"
    )
    result = result_box["result"]
    stats["meta"] = {
        "files_checked": result.files_checked,
        "rules_run": len(result.rules_run),
        "violations": len(result.violations),
    }
    return stats


SECTIONS = {
    "subspace": (bench_subspace, 20),
    "fused_vs_serial": (bench_fused_vs_serial, 5),
    "lint": (bench_lint, 5),
}


def run_suite(iters_scale: float = 1.0, only: tuple[str, ...] = ()) -> dict:
    """Run every section (or just ``only``) and return the JSON result."""
    sections = {}
    for name in only or SECTIONS:
        fn, iters = SECTIONS[name]
        scaled = max(1, int(round(iters * iters_scale)))
        sections[name] = fn(scaled)
    return {
        "schema": SCHEMA_VERSION,
        "suite": "hotpath",
        "sections": sections,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--print", action="store_true", dest="print_only",
        help="print JSON to stdout instead of writing --out",
    )
    parser.add_argument(
        "--iters-scale", type=float, default=1.0,
        help="multiply every section's iteration count (e.g. 0.2 for a smoke run)",
    )
    parser.add_argument(
        "--section", action="append", default=[], metavar="NAME",
        choices=sorted(SECTIONS), help="run only this section (repeatable; needs --print)",
    )
    args = parser.parse_args(argv)
    if args.section and not args.print_only:
        # A partial result must not replace the baseline; refresh single
        # anchors with scripts/check_bench.py --update --section NAME.
        parser.error("--section needs --print")

    result = run_suite(args.iters_scale, only=tuple(args.section))
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.print_only:
        print(text, end="")
    else:
        args.out.write_text(text)
        print(f"wrote {args.out}")
        for name, stats in result["sections"].items():
            print(f"  {name:>16}: mean {stats['mean_s'] * 1e3:8.3f} ms"
                  f"  min {stats['min_s'] * 1e3:8.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
