"""Hot-path microbenchmarks with a machine-readable JSON artifact.

Unlike the paper-artifact benchmarks in this directory (which go
through pytest-benchmark), this file is a plain script: it times the
four hottest code paths in the training inner loop and writes
``BENCH_hotpath.json`` at the repo root, so the perf trajectory is
diffable across PRs and ``scripts/check_bench.py`` can gate on
regressions.

Sections
--------
``flat_roundtrip``
    ``get_flat_params`` / ``set_flat_params`` / ``get_flat_grads`` /
    ``set_flat_grads`` on the paper-geometry MNIST CNN (~431k params).
``local_train``
    One ``Client.local_train`` round (FedProx + SCAFFOLD active, so
    the per-minibatch flat-gradient corrections are exercised).
``dgc_roundtrip``
    ``DGCCompressor.compress`` + ``decompress`` at ratio 100 on a
    model-sized gradient.
``dgc_cohort``
    One cohort's uploads as the engine compresses them: 20 compressors
    at the wide-MLP dim (397 510) sharing one magnitude scratch, called
    in turn at the warm-up ratio 4, so each call meets a cold
    residual.  ``meta`` holds microseconds per call and the fresh bytes
    one call allocates (its ``tracemalloc`` peak above the level before).
``conv_fwd_bwd``
    One training step of the ``bench``-preset MNIST CNN that
    ``adafl_sync_cnn`` trains (forward, loss, backward, SGD); ``meta``
    records every layer's forward / backward microseconds.
``engine_loop``
    A miniature sync + async federation driven end-to-end through the
    ``repro.sim`` kernel (selection, transfers, training, aggregation).
    The timed path runs with metrics-only tracing; ``meta`` records the
    overhead ratio with a ring-buffer trace sink attached, asserted to
    stay under 5%.
``wire``
    Frame encode/decode on the transfer hot path: dense float32 model
    frames and DGC-sparse upload frames at the MNIST-CNN and VGG-mini
    dims, plus the framing share of a training round (one cast into the
    wire buffer, header pack, one CRC32 per end), asserted under 3%.
    ``meta`` holds the hop budget of one dense upload, both asserted:
    ``crc_passes_per_upload`` == 2 (counted ``zlib.crc32`` calls:
    sender, receiver) and a ``tracemalloc`` peak of at most 1.25x the
    payload (the wire buffer is the only payload-sized allocation).
``subspace``
    Parameter-subspace primitives at the MNIST-CNN dim: masked
    gather/scatter of a 40%-coverage ``ParamSubspace`` plus a full
    masked-frame round trip (QSGD inner codec) — the Adaptive
    Federated Dropout upload path.  The masked trip is asserted
    cheaper than framing the dense vector.
``batched_train``
    One 10-client fused training round through the batched multi-client
    kernel (``repro.fl.batched.train_clients_batched``) on an
    embedded-scale MNIST CNN, with the serial ``Client.local_train``
    loop timed alongside; the fused/serial speedup is asserted >= 3x.
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
    PYTHONPATH=src python benchmarks/bench_hotpath.py --print --section dgc_cohort
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.compression.dgc import DGCCompressor, MagnitudeScratch
from repro.data.synthetic import make_image_classification
from repro.fl.client import Client
from repro.fl.config import LocalTrainingConfig
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import build_mnist_cnn
from repro.nn.optim import SGD

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
def bench_flat_roundtrip(iters: int) -> dict:
    """Flat-parameter round-trips on the paper's ~431k-param CNN."""
    model = build_mnist_cnn(
        input_shape=(1, 28, 28), hidden=500, same_padding=False, seed=0
    )
    d = model.num_params
    target_params = model.get_flat_params() * 1.001
    target_grads = np.full(d, 0.5)

    def step() -> None:
        model.get_flat_params()
        model.set_flat_params(target_params)
        model.get_flat_grads()
        model.set_flat_grads(target_grads)

    stats = _time_section(step, iters)
    stats["meta"] = {"d": d, "ops_per_iter": 4}
    return stats


def bench_local_train(iters: int) -> dict:
    """One local-train round with FedProx + SCAFFOLD corrections live."""
    shape = (1, 14, 14)
    train, _ = make_image_classification(
        n_train=256, n_test=8, num_classes=10, image_shape=shape, seed=3
    )

    def model_fn():
        return build_mnist_cnn(input_shape=shape, seed=0)

    client = Client(0, train, model_fn, seed=1)
    global_params = model_fn().get_flat_params().copy()
    server_control = np.zeros_like(global_params)
    config = LocalTrainingConfig(
        local_epochs=1, batch_size=32, lr=0.01, momentum=0.9, prox_mu=0.01
    )

    def step() -> None:
        client.local_train(
            global_params, config, server_control=server_control
        )

    stats = _time_section(step, iters, warmup=1)
    stats["meta"] = {
        "d": client.model_dim,
        "samples": len(train),
        "batch_size": config.batch_size,
    }
    return stats


def bench_dgc_roundtrip(iters: int) -> dict:
    """DGC compress + decompress on a model-sized gradient."""
    d = 431_080
    rng = np.random.default_rng(0)
    grad = rng.normal(size=d)
    comp = DGCCompressor(d, ratio=100.0)

    def step() -> None:
        payload = comp.compress(grad)
        comp.decompress(payload)

    stats = _time_section(step, iters)
    stats["meta"] = {"d": d, "ratio": 100.0}
    return stats


def bench_dgc_cohort(iters: int) -> dict:
    """A cohort's worth of DGC compress calls, interleaved as the engine
    makes them.

    ``dgc_roundtrip`` loops one compressor whose buffers stay in cache;
    an AdaFL round instead compresses 20 clients in turn, each against
    6 MiB of velocity + residual the other 19 calls pushed out, so fresh
    d-sized allocations and their page faults show here.  Gradients are
    scaled so the local clip engages, as on the wide MLP.
    """
    import tracemalloc

    d, num_clients, ratio = 397_510, 20, 4.0
    rng = np.random.default_rng(0)
    grads = [rng.normal(scale=1e-2, size=d) for _ in range(4)]
    scratch = MagnitudeScratch(d)
    comps = [
        DGCCompressor(d, num_workers=num_clients, scratch=scratch)
        for _ in range(num_clients)
    ]

    def cohort() -> None:
        for i, comp in enumerate(comps):
            comp.compress(grads[i % len(grads)], ratio=ratio)

    stats = _time_section(cohort, iters)
    fresh = []
    tracemalloc.start()
    try:
        for i, comp in enumerate(comps):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            payload = comp.compress(grads[i % len(grads)], ratio=ratio)
            fresh.append(tracemalloc.get_traced_memory()[1] - before)
            del payload
    finally:
        tracemalloc.stop()
    stats["meta"] = {
        "d": d,
        "compressors": num_clients,
        "ratio": ratio,
        "us_per_call": stats["min_s"] / num_clients * 1e6,
        "fresh_bytes_per_call": float(np.mean(fresh)),
    }
    return stats


def bench_conv_fwd_bwd(iters: int) -> dict:
    """One training step of the bench-preset MNIST CNN, layer by layer.

    The model, batch and step are the ones ``adafl_sync_cnn`` runs 390
    times: forward, loss, backward stopping at the first trainable
    layer, SGD.  ``meta["layers_us"]`` is each layer's best forward /
    backward time in microseconds.
    """
    from repro.experiments.presets import get_scale

    scale = get_scale("bench")
    size = scale.image_size
    model = build_mnist_cnn(
        (1, size, size), 10, channels=scale.cnn_channels, hidden=scale.cnn_hidden,
        seed=0,
    )
    rng = np.random.default_rng(0)
    x = rng.normal(size=(scale.batch_size, 1, size, size))
    y = rng.integers(0, 10, size=scale.batch_size)
    loss_fn = SoftmaxCrossEntropy()
    optimizer = SGD([model.flat_parameter()], lr=0.01)
    layers = model.layers
    first = next(i for i, layer in enumerate(layers) if layer.parameters())
    fwd_s = [float("inf")] * len(layers)
    bwd_s = [float("inf")] * len(layers)
    clock = time.perf_counter

    def step() -> None:
        model.zero_grad()
        out = x
        for i, layer in enumerate(layers):
            start = clock()
            out = layer.forward(out, training=True)
            fwd_s[i] = min(fwd_s[i], clock() - start)
        loss_fn.forward(out, y)
        grad = loss_fn.backward()
        for i in range(len(layers) - 1, first - 1, -1):
            start = clock()
            grad = layers[i].backward(grad, need_input=i > first)
            bwd_s[i] = min(bwd_s[i], clock() - start)
        optimizer.step()

    stats = _time_section(step, iters)
    stats["meta"] = {
        "d": model.num_params,
        "batch": scale.batch_size,
        "layers_us": {
            f"{i}.{type(layer).__name__}": {
                "fwd": round(fwd_s[i] * 1e6, 1),
                "bwd": round(bwd_s[i] * 1e6, 1) if i >= first else None,
            }
            for i, layer in enumerate(layers)
        },
    }
    return stats


def bench_engine_loop(iters: int) -> dict:
    """Sync + async engine loops on the simulation kernel."""
    from repro.fl.async_engine import AsyncEngine
    from repro.fl.baselines import FedAsync, FedAvg
    from repro.fl.config import FederationConfig
    from repro.fl.sync_engine import SyncEngine
    from repro.network.conditions import ClientNetwork, NetworkConditions
    from repro.network.link import LinkModel
    from repro.nn.models import build_mlp
    from repro.sim import EventTrace, RingBufferSink

    num_clients = 4
    shape = (1, 6, 6)
    train, test = make_image_classification(
        n_train=64, n_test=16, num_classes=4, image_shape=shape, seed=11
    )
    parts = np.array_split(np.arange(len(train)), num_clients)

    def model_fn():
        return build_mlp(shape, num_classes=4, hidden=(12,), seed=5)

    def network():
        link = lambda: LinkModel(bandwidth_mbps=10.0, latency_ms=5.0, jitter_ms=2.0)
        return NetworkConditions(
            clients=[ClientNetwork(uplink=link(), downlink=link())
                     for _ in range(num_clients)]
        )

    local = LocalTrainingConfig(local_epochs=1, batch_size=16, lr=0.1)

    def run_once(trace) -> None:
        from repro.fl.client import Client as _Client
        from repro.fl.server import Server as _Server

        clients = [
            _Client(i, train.subset(parts[i]), model_fn, seed=20 + i)
            for i in range(num_clients)
        ]
        sync_cfg = FederationConfig(
            num_rounds=2, participation_rate=1.0, eval_every=4, seed=9, local=local
        )
        SyncEngine(
            _Server(model_fn, test), clients, FedAvg(participation_rate=1.0),
            sync_cfg, network=network(), trace=trace,
        ).run()
        clients = [
            _Client(i, train.subset(parts[i]), model_fn, seed=40 + i)
            for i in range(num_clients)
        ]
        async_cfg = FederationConfig(
            num_rounds=2, participation_rate=1.0, eval_every=8, seed=9, local=local,
            max_sim_time_s=1e9, max_updates=6,
        )
        AsyncEngine(
            _Server(model_fn, test), clients, FedAsync(),
            async_cfg, network=network(), trace=trace,
        ).run()

    ring = RingBufferSink()
    run_once(EventTrace([ring]))  # warmup + event census
    events_per_run = len(ring)

    stats = _time_section(lambda: run_once(None), iters)

    # Attaching a ring sink changes exactly one thing in the hot path:
    # one extra ``sink.emit(event)`` dispatch per event.  Differencing
    # two ms-scale end-to-end timings cannot resolve that (machine
    # noise is larger than the signal), so measure the differing code
    # directly and express it as a share of the engine loop.
    sample_event = ring.events()[0]
    emit_reps = 100_000

    def emit_loop() -> None:
        sink = RingBufferSink()
        for _ in range(emit_reps):
            sink.emit(sample_event)

    emit_s = _time_section(emit_loop, 5)["min_s"] / emit_reps
    overhead = 1.0 + events_per_run * emit_s / stats["min_s"]
    assert overhead < 1.05, (
        f"trace sink overhead {overhead:.3f}x exceeds the 5% budget"
    )
    stats["meta"] = {
        "events_per_run": events_per_run,
        "sink_emit_ns": emit_s * 1e9,
        "num_clients": num_clients,
        "sync_rounds": 2,
        "async_updates": 6,
        "tracing_overhead_ratio": overhead,
    }
    return stats


def bench_resilience(iters: int) -> dict:
    """Update-validation screening cost on the aggregation hot path.

    Times a fleet-scale aggregation round (sample-weighted average of
    40 model-sized deltas, each the float32 view decoded from a dense
    upload frame, as the server folds them) and, separately, one
    non-finite reduction over the aggregate
    (``UpdateValidator.screen_aggregate``), asserted under the 5%
    budget.  The engines no longer screen the aggregate: they screen
    every delivery before folding it, so ``meta`` reports that path
    too — ``screen_per_delivery_ms`` (``UpdateValidator.screen`` of one
    float32 upload) beside ``fold_per_delivery_ms`` (one
    ``WeightedFold.add``), each timed over the 40 deltas in turn, so
    every delta is read from memory, not cache — whose ratio is what
    screening adds to the fold — plus a trimmed-mean fallback round for
    reference.  As with
    the tracing overhead in ``engine_loop``, added work is measured
    directly rather than differenced.
    """
    from repro.fl.client import ClientUpdate
    from repro.fl.strategy import UploadPacket, WeightedFold, weighted_average
    from repro.fl.validation import UpdateValidator, ValidationConfig, trimmed_mean
    from repro.wire.codecs import encode_frame

    d = 431_080
    n = 40  # a fleet-scale round's delivered updates
    rng = np.random.default_rng(0)

    def upload() -> np.ndarray:
        """A training delta as the server folds it: its frame's float32 view."""
        frame = encode_frame("none", d, {"values": rng.normal(size=d)})
        return UploadPacket.of(frame).delta

    updates = [
        ClientUpdate(
            client_id=i,
            round_index=0,
            num_samples=int(rng.integers(50, 200)),
            delta=upload(),
            train_loss=0.0,
            flops=0,
        )
        for i in range(n)
    ]
    validator = UpdateValidator(ValidationConfig())

    stats = _time_section(lambda: weighted_average(updates), iters)

    aggregate = weighted_average(updates)
    screen_reps = 50

    def screen_loop() -> None:
        for _ in range(screen_reps):
            validator.screen_aggregate(aggregate)

    screen_s = _time_section(screen_loop, 5)["min_s"] / screen_reps
    overhead = 1.0 + screen_s / stats["min_s"]
    assert overhead < 1.05, (
        f"validation screening overhead {overhead:.3f}x exceeds the 5% budget"
    )

    screen_delivery_s = (
        _time_section(
            lambda: [validator.screen(u.delta) for u in updates], max(1, iters // 4)
        )["min_s"]
        / n
    )

    def fold_round() -> None:
        fold = WeightedFold()
        for u in updates:
            fold.add(u)

    fold_delivery_s = _time_section(fold_round, max(1, iters // 4))["min_s"] / n
    trimmed_s = _time_section(
        lambda: trimmed_mean([u.delta for u in updates[:10]]), max(1, iters // 4)
    )["min_s"]
    trimmed_fleet_s = _time_section(
        lambda: trimmed_mean([u.delta for u in updates]), max(1, iters // 4)
    )["min_s"]
    stats["meta"] = {
        "d": d,
        "updates_per_round": n,
        "screen_aggregate_ms": screen_s * 1e3,
        "screening_overhead_ratio": overhead,
        "screen_per_delivery_ms": screen_delivery_s * 1e3,
        "fold_per_delivery_ms": fold_delivery_s * 1e3,
        "trimmed_mean_10_ms": trimmed_s * 1e3,
        "trimmed_mean_40_ms": trimmed_fleet_s * 1e3,
    }
    return stats


def bench_wire(iters: int) -> dict:
    """Frame encode/decode throughput on the uplink/downlink path.

    The timed step is one full framing round trip at the MNIST-CNN dim
    (~431k params): dense model-frame encode + decode and DGC-sparse
    upload-frame encode + decode.  ``meta`` records the same trip at
    the VGG-mini dim and the framing work one training round actually
    adds — one model-frame encode (the engines cache it per version),
    one upload ``to_frame``/``to_bytes``, one server-side
    ``from_bytes`` (CRC check) + decode — as a share of the
    ``local_train`` round's wall time, asserted under the 3% budget.
    It also counts what one dense float64 -> float32 upload costs end
    to end: ``zlib.crc32`` calls (asserted == 2: sender, receiver) and
    the ``tracemalloc`` peak (asserted <= 1.25x the payload — the wire
    buffer itself; parsing and decoding are views into it).
    """
    import tracemalloc
    import zlib

    from repro.wire import Frame, decode_frame, encode_frame, encode_model_frame

    rng = np.random.default_rng(0)
    dims = {"mnist_cnn": 431_080, "vgg_mini": 41_652}
    fixtures = {}
    for name, d in dims.items():
        params = rng.normal(size=d)
        comp = DGCCompressor(d, ratio=100.0)
        payload = comp.compress(rng.normal(size=d))
        fixtures[name] = (
            params,
            payload,
            encode_model_frame(params, 1).to_bytes(),
            payload.to_frame(1).to_bytes(),
        )

    def trip(name: str) -> None:
        params, payload, dense_buf, sparse_buf = fixtures[name]
        encode_model_frame(params, model_version=1).to_bytes()
        decode_frame(Frame.from_bytes(dense_buf))
        payload.to_frame(model_version=1).to_bytes()
        decode_frame(Frame.from_bytes(sparse_buf))

    stats = _time_section(lambda: trip("mnist_cnn"), iters)
    vgg_s = _time_section(lambda: trip("vgg_mini"), iters)["min_s"]

    # Framing share of a round, measured at the round's own model dim.
    round_stats = bench_local_train(max(1, iters // 8))
    d_round = round_stats["meta"]["d"]
    params = rng.normal(size=d_round)
    comp = DGCCompressor(d_round, ratio=100.0)
    payload = comp.compress(rng.normal(size=d_round))
    upload_buf = payload.to_frame(1).to_bytes()

    def framing() -> None:
        encode_model_frame(params, model_version=1).to_bytes()
        payload.to_frame(model_version=1).to_bytes()
        decode_frame(Frame.from_bytes(upload_buf))

    framing_s = _time_section(framing, iters)["min_s"]
    share = framing_s / round_stats["min_s"]
    assert share < 0.03, (
        f"framing overhead is {share:.1%} of a training round; budget is 3%"
    )
    d = dims["mnist_cnn"]
    delta = fixtures["mnist_cnn"][0]

    def dense_upload() -> None:
        buf = encode_frame("none", d, {"values": delta}, model_version=1).to_bytes()
        decode_frame(Frame.from_bytes(buf))

    crc_calls = []
    real_crc32 = zlib.crc32
    zlib.crc32 = lambda data, *args: crc_calls.append(1) or real_crc32(data, *args)
    try:
        dense_upload()
    finally:
        zlib.crc32 = real_crc32
    assert len(crc_calls) == 2, f"a dense upload made {len(crc_calls)} CRC passes, not 2"
    tracemalloc.start()
    try:
        dense_upload()
        _, upload_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_x = upload_peak / (4 * d)
    assert peak_x <= 1.25, f"a dense upload peaked at {peak_x:.2f}x its payload"

    stats["meta"] = {
        "dims": dims,
        "vgg_mini_trip_ms": vgg_s * 1e3,
        "dense_mb": dims["mnist_cnn"] * 4 / 1e6,
        "crc_passes_per_upload": len(crc_calls),
        "upload_peak_alloc_x_payload": peak_x,
        "round_d": d_round,
        "round_s": round_stats["min_s"],
        "framing_ms": framing_s * 1e3,
        "framing_share_of_round": share,
    }
    return stats


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


def bench_batched_train(iters: int) -> dict:
    """Fused 10-client round vs the serial loop it replaces.

    The timed step is one full fused round through
    ``train_clients_batched`` (warm trainer cache, so allocation is
    amortised the way the engines amortise it).  The serial baseline —
    ten ``Client.local_train`` calls on an identically seeded cohort —
    is timed alongside and reported in ``meta`` with the speedup,
    asserted >= 3x.

    The geometry is embedded-scale on purpose: a thin CNN (channels
    2/4, hidden 16) on 8x8 images with batch size 2, the device class
    the paper targets.  In that regime the serial loop is dominated by
    Python/numpy dispatch overhead, which is exactly what fusing K
    clients into one call amortises; at workstation-scale widths the
    im2col copy bandwidth (linear in rows either way) dominates and
    the two paths converge.
    """
    from repro.fl.batched import train_clients_batched

    num_clients = 10
    shape = (1, 8, 8)

    def model_fn():
        return build_mnist_cnn(
            input_shape=shape, num_classes=10, channels=(2, 4), hidden=16,
            seed=5,
        )

    train, _ = make_image_classification(
        n_train=16 * num_clients, n_test=10, num_classes=10,
        image_shape=shape, seed=7,
    )
    parts = np.array_split(np.arange(len(train)), num_clients)

    def cohort():
        return [
            Client(i, train.subset(parts[i]), model_fn, seed=30 + i)
            for i in range(num_clients)
        ]

    serial, fused = cohort(), cohort()
    config = LocalTrainingConfig(
        local_epochs=1, batch_size=2, lr=0.05, momentum=0.9
    )
    global_params = serial[0].replica.model.get_flat_params().copy()
    cache: dict = {}

    def fused_round() -> None:
        assert train_clients_batched(
            fused, global_params, config, cache=cache
        ) is not None

    stats = _time_section(fused_round, iters)
    serial_s = _time_section(
        lambda: [c.local_train(global_params, config) for c in serial], iters
    )["min_s"]
    speedup = serial_s / stats["min_s"]
    assert speedup >= 3.0, (
        f"fused round is only {speedup:.2f}x the serial loop; floor is 3x"
    )
    stats["meta"] = {
        "num_clients": num_clients,
        "d": serial[0].model_dim,
        "samples_per_client": 16,
        "batch_size": config.batch_size,
        "serial_round_s": serial_s,
        "speedup_vs_serial": speedup,
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


def bench_population(iters: int) -> dict:
    """One federated round over a 100k-client virtual population.

    The timed step is a full ``run_population_smoke`` pass — registry
    construction (descriptor arrays for 100 000 clients), one sync
    round over a 20-client cohort with regenerate-mode eviction, and
    the reservoir spot-check (O(k) memory, O(k·log(n/k)) generator
    draws) — so the number gates the whole O(active) machinery, not
    just the registry dict.

    ``meta`` carries the peak-RSS proxy from the registry's own
    accounting: peak live clients/bytes versus the estimated cost of
    materialising the population eagerly.  The bound itself
    (``peak_live`` stays O(cohort)) is asserted inside the smoke; here
    we additionally pin the descriptor overhead to a few bytes per
    client so metadata growth cannot silently reintroduce O(n) bloat.
    """
    from repro.experiments.scalability import run_population_smoke

    num_clients = 100_000
    out_box = {}

    def step() -> None:
        out_box["out"] = run_population_smoke(
            num_clients=num_clients, rounds=1, cohort=20,
            mode="regenerate", engine="sync", seed=0,
        )

    stats = _time_section(step, iters, warmup=1)
    out = out_box["out"]
    per_client = (
        out["peak_live_nbytes"] / out["peak_live"] if out["peak_live"] else 0.0
    )
    eager_nbytes = per_client * num_clients
    assert out["descriptor_bytes_per_client"] <= 64.0, (
        f"descriptors grew to {out['descriptor_bytes_per_client']:.0f} B/client"
    )
    stats["meta"] = {
        "num_clients": num_clients,
        "cohort": out["cohort"],
        "peak_live": out["peak_live"],
        "peak_live_nbytes": out["peak_live_nbytes"],
        "descriptor_nbytes": out["descriptor_nbytes"],
        "descriptor_bytes_per_client": out["descriptor_bytes_per_client"],
        "eager_nbytes_estimate": eager_nbytes,
        "memory_saving_vs_eager": (
            eager_nbytes / out["peak_live_nbytes"]
            if out["peak_live_nbytes"]
            else 0.0
        ),
        "materializations": out["materializations"],
        "evictions": out["evictions"],
    }
    return stats


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


def bench_transport(iters: int) -> dict:
    """Socket-transport overhead: the same 4-client sync run, TCP vs memory.

    The pinned number is the TCP wall-clock (a regression here means
    the socket path — framing, serials, heartbeats, prefetch — got
    slower); ``meta`` records the in-memory time for the identical
    spec and the resulting overhead ratio.  Worker processes are
    spawned once (interpreter startup is setup cost, not per-round
    overhead) and each iteration drives a fresh engine over the same
    live links, mirroring how a long federation amortises connects.
    """
    from dataclasses import replace as _replace

    from repro.experiments.presets import FAST
    from repro.experiments.runner import (
        FederationSpec,
        _federation_config,
        build_federation,
    )
    from repro.fl.baselines import FedAvg
    from repro.fl.sync_engine import SyncEngine
    from repro.transport import (
        SocketTransport,
        WorkerSetup,
        spawn_worker,
        terminate_workers,
    )

    scale = _replace(
        FAST, num_clients=4, num_rounds=2, train_samples=80, test_samples=40,
        eval_every=4,
    )
    spec = FederationSpec(
        dataset="mnist", model="mnist_cnn", distribution="iid", scale=scale, seed=3
    )
    config = _federation_config(spec)
    num_workers = 2

    def mem_step() -> None:
        fed = build_federation(spec)
        SyncEngine(
            fed.server, fed.clients, FedAvg(participation_rate=1.0), config
        ).run()

    mem = _time_section(mem_step, iters, warmup=1)

    setup = WorkerSetup(
        builder=build_federation,
        builder_arg=spec,
        strategy=FedAvg(participation_rate=1.0),
        config=config,
    )
    transport = SocketTransport(
        "127.0.0.1:0",
        num_workers=num_workers,
        num_clients=scale.num_clients,
        setup=setup,
    )
    procs = [spawn_worker(transport.address, i) for i in range(num_workers)]
    try:
        transport.wait_ready(60.0)

        def tcp_step() -> None:
            fed = build_federation(spec)
            SyncEngine(
                fed.server, None, FedAvg(participation_rate=1.0), config,
                transport=transport,
            ).run()

        stats = _time_section(tcp_step, iters, warmup=1)
    finally:
        transport.close()
        terminate_workers(procs)
    stats["meta"] = {
        "num_clients": scale.num_clients,
        "num_workers": num_workers,
        "rounds": scale.num_rounds,
        "mem_min_s": mem["min_s"],
        "overhead_x": stats["min_s"] / mem["min_s"],
    }
    return stats


SECTIONS = {
    "flat_roundtrip": (bench_flat_roundtrip, 50),
    "local_train": (bench_local_train, 5),
    "dgc_roundtrip": (bench_dgc_roundtrip, 20),
    "dgc_cohort": (bench_dgc_cohort, 5),
    "conv_fwd_bwd": (bench_conv_fwd_bwd, 20),
    "engine_loop": (bench_engine_loop, 8),
    "resilience": (bench_resilience, 10),
    "wire": (bench_wire, 20),
    "subspace": (bench_subspace, 20),
    "batched_train": (bench_batched_train, 8),
    "fused_vs_serial": (bench_fused_vs_serial, 5),
    "population": (bench_population, 3),
    "lint": (bench_lint, 5),
    "transport": (bench_transport, 3),
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
