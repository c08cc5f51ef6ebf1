"""The benchmark's span table still finds the program (tier-1 guard).

``benchmarks/e2e/spans.py`` patches a fixed table of entry points from
outside ``src/``; a refactor that moves a call site out of the module
the table names makes a traced benchmark run fail — but only in the
benchmark pipeline, since ``benchmarks/e2e`` is outside ``testpaths``.
This test installs the real table and drives the two engines far
enough to hit the spans whose call sites are module-specific.
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

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"

pytestmark = pytest.mark.skipif(
    not SPANS_PATH.exists(), reason="benchmarks/e2e is not in this checkout"
)


@pytest.fixture
def spans(monkeypatch):
    """``benchmarks/e2e/spans.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("_bench_e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their own module through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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
    calls = {
        name: entry["calls"]
        for name, entry in spans.self_times(recorder.spans, recorder.names).items()
    }
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
    calls = {
        name: entry["calls"]
        for name, entry in spans.self_times(recorder.spans, recorder.names).items()
    }
    for span in ("nn.forward", "nn.backward", "fl.client.train", "fl.client.probe"):
        assert calls.get(span, 0) >= 1, f"span {span!r} had no hits"
    assert calls.get("nn.batched", 0) == 0  # nothing fused behind a network
    assert recorder.counts["nn.samples"] > 0
