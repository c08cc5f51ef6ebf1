"""``Server.evaluate`` scores each model version once.

FedBuff(3) under ``eval_every = 2`` asks about an unchanged model a
third of the time, and the memo answers those asks.  Every way the
model moves — ``apply_delta``, ``set_params``, a ``restore`` — moves
the version or drops the memo, and whole runs emit byte-identical
``evaluated`` events with and without it.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAvg, FedBuff
from repro.fl.server import Server
from repro.fl.sync_engine import SyncEngine
from repro.fl.validation import ValidationConfig
from repro.sim import EventTrace, FaultPlan, JsonlSink, PayloadCorruptionModel
from tests.fl.equiv_cases import _async_config, _federation, _sync_config


@pytest.fixture
def server(tiny_model_fn, tiny_test):
    return Server(tiny_model_fn, tiny_test)


def _count_forwards(server, monkeypatch) -> list:
    calls = []
    forward = server._model.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(server._model, "forward", counted)
    return calls


def test_an_unchanged_version_is_scored_once(server, monkeypatch):
    calls = _count_forwards(server, monkeypatch)
    first = server.evaluate()
    passes = len(calls)
    assert passes > 0
    assert server.evaluate() == first
    assert len(calls) == passes


@pytest.mark.parametrize("move", ["apply_delta", "set_params", "restore"])
def test_every_model_change_is_scored_afresh(move, server, tiny_model_fn, tiny_test):
    first = server.evaluate()
    before = (server.params.copy(), server.global_delta, server.version)
    step = np.random.default_rng(0).normal(scale=0.5, size=server.dim)
    if move == "set_params":
        server.set_params(server.params + step)
    else:
        server.apply_delta(step)
    if move == "restore":
        server.evaluate()  # the memo now holds the moved model's score
        server.restore(*before)
    reference = Server(tiny_model_fn, tiny_test)
    reference.set_params(server.params)
    got = server.evaluate()
    assert got == reference.evaluate()
    assert (got == first) == (move == "restore")


def test_restore_rescores_even_at_the_same_version(server, tiny_model_fn, tiny_test):
    server.evaluate()
    moved = server.params + np.random.default_rng(1).normal(scale=0.5, size=server.dim)
    server.restore(moved, None, server.version)
    reference = Server(tiny_model_fn, tiny_test)
    reference.set_params(moved)
    assert server.evaluate() == reference.evaluate()


def _score_every_time(monkeypatch) -> None:
    evaluate = Server.evaluate

    def uncached(self):
        self._eval_memo = None
        return evaluate(self)

    monkeypatch.setattr(Server, "evaluate", uncached)


def _sync_rollback(trace) -> None:
    # Validation under NaN uploads: poisoned deliveries never reach the fold.
    server, clients = _federation(10)
    config = replace(_sync_config(6), eval_every=1, validation=ValidationConfig())
    chaos = FaultPlan(PayloadCorruptionModel(prob=0.3, kind="nan"))
    SyncEngine(server, clients, FedAvg(participation_rate=1.0), config, chaos=chaos,
               trace=trace).run()


def _fedbuff(trace) -> None:
    server, clients = _federation(20)
    config = replace(_async_config(24), eval_every=2)
    AsyncEngine(server, clients, FedBuff(buffer_size=3), config, trace=trace).run()


def _trace(run) -> list[dict]:
    buffer = io.StringIO()
    with EventTrace([JsonlSink(buffer)]) as trace:
        run(trace)
        text = buffer.getvalue()
    return [json.loads(line) for line in text.splitlines()]


@pytest.mark.parametrize("run", [_sync_rollback, _fedbuff], ids=["sync_rollback", "fedbuff"])
def test_runs_emit_the_same_events_as_scoring_every_time(run, monkeypatch):
    memo = _trace(run)
    _score_every_time(monkeypatch)
    assert _trace(run) == memo
    assert any(e["type"] == "evaluated" for e in memo)
    if run is _sync_rollback:
        assert any(e.get("data", {}).get("reason") == "corrupt" for e in memo)
