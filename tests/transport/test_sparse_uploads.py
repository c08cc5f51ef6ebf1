"""Sync AdaFL over a socket is its in-memory twin, trace byte for trace byte.

DGC payloads come back from the worker as frames and decode through
``RemoteCompressor`` into the same :class:`SparseDelta` the in-process
compressor hands the server, so both runs fold the same wire arrays.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.compression.base import SparseDelta
from repro.core.adafl import AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.experiments.runner import run_sync
from repro.fl.strategy import WeightedFold
from repro.sim import EventTrace, JsonlSink
from tests.transport.inproc import inproc_session, mlp_spec

pytestmark = pytest.mark.transport


def _adafl() -> AdaFLSync:
    policy = AdaptiveCompressionPolicy(warmup_rounds=2)
    return AdaFLSync(AdaFLConfig(tau=0.0, policy=policy))


def _traced(run) -> tuple:
    """``(trace sha256, records)`` of one run."""
    buffer = io.StringIO()
    with EventTrace([JsonlSink(buffer)]) as trace:
        result = run(trace)
        text = buffer.getvalue()
    return hashlib.sha256(text.encode()).hexdigest(), result.records


def test_sync_adafl_over_a_socket_is_the_in_memory_run(monkeypatch):
    spec = mlp_spec(num_clients=4)
    folded: list[type] = []

    add = WeightedFold.add

    def recording(self, update):
        folded.append(type(update.delta))
        add(self, update)

    monkeypatch.setattr(WeightedFold, "add", recording)

    def over_socket(trace):
        with inproc_session(spec, _adafl(), trace=trace) as (session, _):
            return session.run()

    memory = _traced(lambda trace: run_sync(spec, _adafl(), trace=trace))
    in_memory_types, folded[:] = list(folded), []
    assert _traced(over_socket) == memory
    assert in_memory_types and set(in_memory_types) == set(folded) == {SparseDelta}
