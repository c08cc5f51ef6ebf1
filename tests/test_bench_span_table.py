"""The benchmark's span table still finds the program (tier-1 guard).

``benchmarks/e2e/spans.py`` patches a fixed table of entry points from
outside ``src/``; a refactor that moves a call site out of the module
the table names makes a traced benchmark run fail — but only in the
benchmark pipeline, since ``benchmarks/e2e`` is outside ``testpaths``.
This test installs the real table and drives the two engines far
enough to hit the spans whose call sites are module-specific, then
runs each of the benchmark's own workloads (at smoke size) and checks
the spans it exists to load are hit.
Read-only use of ``benchmarks/e2e``.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.adafl import AdaFLSync
from repro.experiments.comparison import default_adafl_config
from repro.experiments.presets import FAST
from repro.experiments.runner import FederationSpec, run_sync
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.sync_engine import SyncEngine
from repro.fl.validation import ValidationConfig
from repro.network.conditions import NetworkConditions
from tests.fl.equiv_cases import _async_config, _federation, _sync_config

E2E_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
SPANS_PATH = E2E_DIR / "spans.py"

pytestmark = pytest.mark.skipif(
    not SPANS_PATH.exists(), reason="benchmarks/e2e is not in this checkout"
)


def _load(name: str):
    """``benchmarks/e2e/<name>.py``, loaded by path (once per session)."""
    key = f"_bench_e2e_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, E2E_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # Its dataclasses resolve their own module through sys.modules.
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.fixture
def spans():
    return _load("spans")


def _calls(spans, recorder) -> dict[str, int]:
    return {
        name: entry["calls"]
        for name, entry in spans.self_times(recorder.spans, recorder.names).items()
    }


def test_real_table_sees_both_engines(spans):
    recorder = spans.Recorder()
    spans.install(recorder)  # SpanTableError here: a target no longer resolves
    try:
        with recorder.root():
            # No network: the whole cohort goes through the fused kernel.
            server, clients = _federation(10)
            cfg = replace(_sync_config(2), validation=ValidationConfig())
            SyncEngine(server, clients, FedAvg(participation_rate=1.0), cfg).run()
            server, clients = _federation(20)
            AsyncEngine(server, clients, FedAsync(), _async_config(6)).run()
    finally:
        spans.uninstall(recorder)
    calls = _calls(spans, recorder)
    for span in ("fl.batched.glue", "fl.validation.screen",
                 "sim.kernel.downlink", "sim.kernel.uplink"):
        assert calls.get(span, 0) >= 1, f"span {span!r} had no hits"
    assert recorder.counts["fl.batched.fused"] > 0


def test_real_table_sees_the_serial_nn_path(spans):
    """A network model forces every client through the serial
    ``Sequential`` passes; the table must still time them (and read the
    batch off ``forward``'s positional ``x``) whatever keywords
    ``backward`` grows."""
    # Two warm-up rounds select everyone unprobed; the third one scores.
    spec = FederationSpec(model="mnist_cnn", distribution="shard",
                          scale=replace(FAST, num_rounds=3), seed=0)
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        with recorder.root():
            run_sync(
                spec,
                AdaFLSync(default_adafl_config(spec.scale)),
                network=NetworkConditions.uniform(spec.scale.num_clients, "wifi"),
            )
    finally:
        spans.uninstall(recorder)
    calls = _calls(spans, recorder)
    for span in ("nn.forward", "nn.backward", "fl.client.train", "fl.client.probe"):
        assert calls.get(span, 0) >= 1, f"span {span!r} had no hits"
    assert calls.get("nn.batched", 0) == 0  # nothing fused behind a network
    assert recorder.counts["nn.samples"] > 0


# Entry points whose owner or signature the ownership of the model
# replica touches; the table must keep naming them where they live.
REPLICA_SENSITIVE_TARGETS = {
    ("repro.fl.client", "Client.local_train"),
    ("repro.fl.client", "Client.probe_delta"),
    ("repro.fl.population", "ClientPopulation.client"),
    ("repro.experiments.scalability", "SyntheticShardFactory.__call__"),
    ("repro.fl.sync_engine", "train_clients_batched"),
    ("repro.fl.async_engine", "train_clients_batched"),
    ("repro.nn.batched", "MultiClientTrainer.run"),
    ("repro.nn.sequential", "Sequential.forward"),
    ("repro.nn.sequential", "Sequential.backward"),
    ("repro.nn.sequential", "Sequential.set_flat_params"),
    ("repro.nn.sequential", "Sequential.get_flat_params"),
    ("repro.nn.sequential", "Sequential.get_flat_grads"),
    ("repro.nn.sequential", "Sequential.zero_grad"),
    ("repro.nn.optim", "SGD.step"),
}


def test_every_table_target_resolves_to_a_callable(spans):
    listed = {(t.module, t.qualname) for t in spans.TABLE}
    assert REPLICA_SENSITIVE_TARGETS <= listed
    for target in spans.TABLE:
        _, _, raw = spans._resolve(target)  # SpanTableError: it moved
        assert callable(getattr(raw, "__func__", raw)), str(target)


WORKLOAD_NAMES = [w.name for w in _load("workloads").WORKLOADS] if SPANS_PATH.exists() else []


@pytest.mark.transport  # socket_sync_2w spawns worker processes
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_each_workload_still_hits_its_dominant_spans(name, spans):
    """What ``child.py --trace 1`` checks on a full-size run, at the
    harness's own smoke size: the layers a workload exists to load are
    still reached through the entry points the table patches."""
    workload = _load("workloads").by_name(name)
    params = dict(workload.params)
    params["steps"] = max(4, params["steps"] // 10)  # child.py --smoke
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        with recorder.root():
            workload.run(params, 0)
    finally:
        spans.uninstall(recorder)
    calls = _calls(spans, recorder)
    missed = [span for span in workload.dominant if calls.get(span, 0) == 0]
    assert not missed, f"{name}: no hits on {missed}"
