"""The seven canonical federations the end-to-end benchmark runs.

Each workload is one call into the program's public experiment API
(`run_sync`, `run_async`, `run_population_smoke`, `socket_session`)
with inputs generated from a seed; the program only ever sees the
generated spec.  Why each one exists (which layer it loads, and which
other workload uses the same layer the opposite way) is recorded in
the `why` field of `BENCHMARK.json` and at length in `README.md`.

Sizes are the ISSUE-11 sizes scaled by one common factor (`SCALE`) so
that five fresh-process repetitions of a workload fit the benchmark
contract's per-invocation time budget; `params["steps"]` is the one
count `--smoke` divides further.

`repro` is imported inside the run functions: the parent harness reads
this table without loading numpy, so its own RSS stays below any
child's (a child's `ru_maxrss` starts at its parent's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["SCALE", "Workload", "WORKLOADS", "by_name"]

# Common factor applied to every ISSUE-11 round/update count.
SCALE = 0.25


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``run(params, seed)`` drives the program and returns whatever the
    entry point returns; the harness reads the `RunResult` off the
    engine, so the return value is unused.  ``timed_whole`` workloads
    are timed around the whole call (there is no separate "engine
    ready" instant the harness can see from outside).  ``dominant``
    names spans that must be hit in a traced run — the layers the
    workload exists to load; ``accuracy_floor`` sits well under every
    value seen on the seed commit, so only a broken run trips it.
    """

    name: str
    params: dict[str, Any]
    run: Callable[[dict[str, Any], int], Any]
    dominant: tuple[str, ...]
    accuracy_floor: float
    timed_whole: bool = False
    twin: Callable[[dict[str, Any], int], Any] | None = None


def _straggler_network(num_clients: int, seed: int):
    """wifi links with a 20 % constrained minority (the paper's mix)."""
    import numpy as np
    from repro.network.conditions import NetworkConditions

    return NetworkConditions.with_stragglers(
        num_clients,
        straggler_fraction=0.2,
        good_preset="wifi",
        bad_preset="constrained",
        rng=np.random.default_rng(seed + 17),
    )


def _spec(preset: str, model: str, seed: int, **scale_overrides):
    from dataclasses import replace

    from repro.experiments.presets import get_scale
    from repro.experiments.runner import FederationSpec

    scale = replace(get_scale(preset), **scale_overrides)
    return FederationSpec(
        dataset="mnist", model=model, distribution="shard", scale=scale, seed=seed
    )


def _adafl_sync_cnn(params, seed):
    from repro.core.adafl import AdaFLSync
    from repro.experiments.comparison import default_adafl_config
    from repro.experiments.runner import run_sync

    spec = _spec("bench", "mnist_cnn", seed, num_rounds=params["steps"])
    return run_sync(
        spec,
        AdaFLSync(default_adafl_config(spec.scale)),
        network=_straggler_network(spec.scale.num_clients, seed),
    )


def _fedbuff_async_mlp(params, seed):
    import numpy as np
    from repro.embedded.cluster import compute_rates, make_heterogeneous_cluster
    from repro.experiments.runner import run_async
    from repro.fl.baselines import FedBuff

    n = params["num_clients"]
    # The update budget, not simulated time, ends the run.
    spec = _spec("fast", "mlp", seed, num_clients=n, max_sim_time_s=1e9)
    cluster = make_heterogeneous_cluster(n, rng=np.random.default_rng(seed + 3))
    return run_async(
        spec,
        FedBuff(buffer_size=params["buffer_size"]),
        network=_straggler_network(n, seed),
        device_flops=compute_rates(cluster),
        max_updates=params["steps"],
    )


def _fedavg_batched_thin(params, seed):
    from repro.experiments.runner import run_sync
    from repro.fl.baselines import FedAvg

    spec = _spec("fast", "mnist_cnn", seed, num_rounds=params["steps"])
    return run_sync(spec, FedAvg(participation_rate=1.0))


def _wide_mlp_spec(params, seed):
    n = params["num_clients"]
    return _spec(
        "fast",
        "mlp",
        seed,
        num_clients=n,
        train_samples=n * params["samples_per_client"],
        batch_size=params["batch_size"],
        image_size=params["image_size"],
        cnn_hidden=params["hidden"],
        num_rounds=params["steps"],
    )


def _dense_wide_mlp(params, seed):
    from repro.experiments.runner import run_sync
    from repro.fl.baselines import FedAvg
    from repro.fl.validation import ValidationConfig

    spec = _wide_mlp_spec(params, seed)
    return run_sync(
        spec,
        FedAvg(participation_rate=1.0),
        network=_straggler_network(spec.scale.num_clients, seed),
        validation=ValidationConfig(),
    )


def _adafl_wide_mlp(params, seed):
    from repro.core.adafl import AdaFLSync
    from repro.experiments.comparison import default_adafl_config
    from repro.experiments.runner import run_sync
    from repro.fl.validation import ValidationConfig

    spec = _wide_mlp_spec(params, seed)
    return run_sync(
        spec,
        AdaFLSync(default_adafl_config(spec.scale)),
        network=_straggler_network(spec.scale.num_clients, seed),
        validation=ValidationConfig(),
    )


def _population_100k(params, seed):
    from repro.experiments.scalability import run_population_smoke

    return run_population_smoke(
        num_clients=params["num_clients"],
        rounds=params["steps"],
        cohort=params["cohort"],
        mode="regenerate",
        engine="sync",
        seed=seed,
    )


def _socket_spec(params, seed):
    return _spec(
        "fast",
        "mnist_cnn",
        seed,
        num_clients=params["num_clients"],
        num_rounds=params["steps"],
    )


def _socket_sync_2w(params, seed):
    from repro.experiments.socket_run import socket_session
    from repro.fl.baselines import FedAvg

    with socket_session(
        _socket_spec(params, seed),
        FedAvg(participation_rate=1.0),
        mode="sync",
        num_workers=params["num_workers"],
    ) as session:
        return session.run()


def _socket_twin(params, seed):
    """The same federation in one process: the byte-identity reference."""
    from repro.experiments.runner import run_sync
    from repro.fl.baselines import FedAvg

    return run_sync(_socket_spec(params, seed), FedAvg(participation_rate=1.0))


_WIDE_MLP = {
    "preset": "fast",
    "model": "mlp",
    "num_clients": 20,
    "samples_per_client": 8,
    "batch_size": 8,
    "image_size": 28,
    "hidden": 500,
}

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="adafl_sync_cnn",
        params={"preset": "bench", "model": "mnist_cnn", "num_clients": 10,
                "steps": round(40 * SCALE)},
        run=_adafl_sync_cnn,
        dominant=("nn.forward", "nn.backward", "fl.client.probe", "core.select",
                  "compression.compress"),
        accuracy_floor=0.2,
    ),
    Workload(
        name="fedbuff_async_mlp",
        params={"preset": "fast", "model": "mlp", "num_clients": 20,
                "buffer_size": 3, "steps": round(15000 * SCALE)},
        run=_fedbuff_async_mlp,
        dominant=("sim.kernel.downlink", "sim.kernel.uplink", "sim.trace_emit",
                  "network.transfer", "fl.server.aggregate", "nn.forward"),
        accuracy_floor=0.4,
    ),
    Workload(
        name="fedavg_batched_thin",
        params={"preset": "fast", "model": "mnist_cnn", "num_clients": 10,
                "steps": round(100 * SCALE)},
        run=_fedavg_batched_thin,
        dominant=("nn.batched", "fl.batched.glue"),
        accuracy_floor=0.15,
    ),
    Workload(
        name="dense_wide_mlp",
        params={**_WIDE_MLP, "steps": round(40 * SCALE)},
        run=_dense_wide_mlp,
        dominant=("wire.encode", "wire.decode", "fl.validation.screen",
                  "fl.server.aggregate", "nn.optim"),
        accuracy_floor=0.4,
    ),
    Workload(
        name="adafl_wide_mlp",
        params={**_WIDE_MLP, "steps": round(30 * SCALE)},
        run=_adafl_wide_mlp,
        dominant=("compression.compress", "compression.decompress",
                  "fl.client.probe", "core.select"),
        accuracy_floor=0.4,
    ),
    Workload(
        name="population_100k",
        params={"num_clients": 100_000, "cohort": 20, "mode": "regenerate",
                "steps": round(300 * SCALE)},
        run=_population_100k,
        dominant=("fl.population.client", "fl.population.factory", "data.synth",
                  "core.select"),
        accuracy_floor=0.2,
        timed_whole=True,
    ),
    Workload(
        name="socket_sync_2w",
        params={"preset": "fast", "model": "mnist_cnn", "num_clients": 8,
                "num_workers": 2, "steps": round(90 * SCALE)},
        run=_socket_sync_2w,
        dominant=("transport.rpc.train", "transport.rpc.prefetch_train",
                  "transport.rpc.heartbeat"),
        accuracy_floor=0.15,
        twin=_socket_twin,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in WORKLOADS)
    raise KeyError(f"unknown workload {name!r}; known: {known}")
