#!/usr/bin/env python
"""Fused ``train_clients_batched`` against the serial ``local_train`` loop.

Prints, for the models the end-to-end benchmark trains, the best-of-7
time of one warm fused round and of the serial loop over the same
cohort.  This is the measurement behind the fused-vs-serial table in
``benchmarks/README.md`` and ROADMAP.md (the fused kernel wins where
dispatch dominates arithmetic and loses at the paper's model size).

Usage (BLAS pinned, as the benchmark pins it)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python scripts/fused_vs_serial.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.experiments.presets import get_scale
from repro.experiments.runner import FederationSpec, _federation_config, build_federation
from repro.fl.batched import train_clients_batched


def _best(fn, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def measure(label: str, preset: str, model: str, num_clients: int, **scale_overrides) -> None:
    scale = replace(get_scale(preset), num_clients=num_clients, **scale_overrides)
    spec = FederationSpec(
        dataset="mnist", model=model, distribution="shard", scale=scale, seed=0
    )
    fed = build_federation(spec)
    config = _federation_config(spec).local
    params = fed.server.params.copy()
    cache: dict = {}

    def fused():
        return train_clients_batched(fed.clients, params, config, cache=cache)

    def serial():
        return [c.local_train(params, config) for c in fed.clients]

    assert fused() is not None  # warm: trainer built, buffers sized
    serial()
    fused_s, serial_s = _best(fused), _best(serial)
    print(
        f"{label:<30} K={num_clients:<3} fused {fused_s * 1e3:8.2f} ms  "
        f"serial {serial_s * 1e3:8.2f} ms  fused is {serial_s / fused_s:4.2f}x serial"
    )


def main() -> None:
    bench, fast = get_scale("bench"), get_scale("fast")
    measure("bench CNN (adafl_sync_cnn)", "bench", "mnist_cnn", 10)
    measure("bench CNN (adafl_sync_cnn)", "bench", "mnist_cnn", 4,
            train_samples=bench.train_samples * 4 // 10)
    measure("FAST CNN (fedavg_batched_thin)", "fast", "mnist_cnn", 10)
    measure("FAST MLP (fedbuff_async_mlp)", "fast", "mlp", 20,
            train_samples=2 * fast.train_samples)
    measure("wide MLP (dense_wide_mlp)", "fast", "mlp", 20, train_samples=160,
            batch_size=8, image_size=28, cnn_hidden=500)


if __name__ == "__main__":
    main()
