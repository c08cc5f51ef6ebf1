"""Pinned full-trace digests for the resilience paths of both engines.

``equivalence_baseline.json`` pins six trajectories, none of which
reaches a :class:`~repro.sim.FaultPlan`, a retry policy with jitter,
update validation, the round deadline under a lossy uplink, or
several availability models at once.  Each case here drives one of
those paths on every engine that supports it, and is pinned much
harder than a trajectory: the sha256 of the complete JSONL trace
(every event, timestamp and data field) plus the run's records.

``python -m tests.fl.trace_digest_cases --only CASE… [--check]``
rewrites the named cases in ``data/trace_digests.json`` (see
:mod:`tests.pins`).  The committed file was generated on the
commit *before* the shared engine base (``repro.fl.engine``) existed,
so ``test_trace_digests.py`` proves that refactor moved no event; the
two ``*_dropout_crash_churn`` entries were generated on the commit
before churn and the Fig. 1 injector became :class:`FaultPlan` models
(then spelled ``faults=FaultInjector(...)``, ``churn=ChurnModel(...)``),
so they prove the same of that fold.  ``async_adafl_crash`` was
generated on the commit before clients stopped caching every training
delta: it proves the delta async AdaFL's halting score reads is still
retained when a crash destroys the leg that trained it.  The six
``*_adafl_*`` cases after it were generated on the commit before sparse
uploads stayed sparse until the fold: they drive AdaFL's DGC payloads
through every path that needs their dense view (deferred validation's
rollback and re-fold, the trimmed-mean fallback, the per-update norm
screen, payload corruption, FedAsync's model mix) and through a
snapshot taken with sparse payloads still queued in the kernel.  All
seven AdaFL cases were re-pinned together in the commit that made
DGC's momentum and residual float32 (event counts unchanged); only
their entries were merged into the file.  Every case whose uploads
are dense (the twelve non-AdaFL digests and the event case below) was
re-pinned when the server began folding the float32 values a dense
upload's frame carries; event counts are unchanged, and the AdaFL
cases did not move.

One case is not digested: an asynchronous run whose ``uplink_retry``
allows several attempts.  The shared uplink loop accumulates failed
attempt time relative to the leg's start (``s + (d + b)``) where the
old async loop chained absolute times (``(s + d) + b``), so retried
upload times may move by one ulp.  That case stores its full event
list and is compared on sequence, taxonomy and bytes exactly, and on
times at ``rel=1e-12``.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.adafl import AdaFLAsync, AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.metrics import RunResult
from repro.fl.snapshot import load_snapshot
from repro.fl.sync_engine import SyncEngine
from repro.fl.validation import ValidationConfig
from repro.network.conditions import ClientNetwork, NetworkConditions
from repro.network.link import LinkModel
from repro.sim import (
    ChurnModel,
    ClientCrashModel,
    EventTrace,
    FaultPlan,
    JsonlSink,
    PayloadCorruptionModel,
    RetryPolicy,
    ServerOutageModel,
    StaleUploadModel,
    StragglerDropoutModel,
    UploadLossModel,
)
from tests.fl.equiv_cases import (
    NUM_CLIENTS,
    _async_config,
    _federation,
    _sync_config,
    trajectory,
)
from tests.pins import regen

DIGEST_PATH = Path(__file__).parent / "data" / "trace_digests.json"

# Devices slow enough that local training takes tens of milliseconds —
# the same scale as a transfer — so crashes can land mid-training.
_SLOW_DEVICES = np.full(NUM_CLIENTS, 2e6)

_JITTERY_RETRY = RetryPolicy(max_attempts=3, backoff_frac=0.5, jitter_frac=0.3)


def _net(uplink_loss: float = 0.0, downlink_loss: float = 0.0) -> NetworkConditions:
    """Jittered links, so every transfer draws from the root RNG."""
    up = LinkModel(bandwidth_mbps=8.0, latency_ms=5.0, jitter_ms=2.0,
                   loss_rate=uplink_loss)
    down = LinkModel(bandwidth_mbps=20.0, latency_ms=5.0, jitter_ms=2.0,
                     loss_rate=downlink_loss)
    return NetworkConditions(
        clients=[ClientNetwork(uplink=up, downlink=down) for _ in range(NUM_CLIENTS)]
    )


def _chaos_plan() -> FaultPlan:
    return FaultPlan(
        ClientCrashModel(mtbf_s=0.15, mean_downtime_s=0.03),
        StaleUploadModel(delay_prob=0.4, mean_delay_s=0.02, duplicate_prob=0.3),
        PayloadCorruptionModel(prob=0.25, kind="bitflip"),
        ServerOutageModel(windows=[(0.06, 0.1), (0.12, 0.2), (0.45, 0.5)]),
    )


_ENGINE_KWARGS = ("network", "chaos", "device_flops", "snapshot_path",
                  "snapshot_every", "on_snapshot")


def _split(kwargs: dict) -> tuple[dict, dict]:
    """``(engine kwargs, FederationConfig overrides)``."""
    engine = {k: kwargs.pop(k) for k in _ENGINE_KWARGS if k in kwargs}
    return engine, kwargs


def _sync(rounds: int, *, rate: float = 1.0, trace=None, strategy=None,
          deadline: float | None = None, **kwargs) -> RunResult:
    server, clients = _federation(10)
    engine_kwargs, overrides = _split(kwargs)
    config = replace(_sync_config(rounds, deadline=deadline), **overrides)
    strategy = FedAvg(participation_rate=rate) if strategy is None else strategy
    return SyncEngine(server, clients, strategy, config,
                      trace=trace, **engine_kwargs).run()


def _async_engine(max_updates: int, *, trace=None, strategy=None,
                  **kwargs) -> AsyncEngine:
    server, clients = _federation(20)
    engine_kwargs, overrides = _split(kwargs)
    config = replace(_async_config(max_updates), **overrides)
    strategy = FedAsync() if strategy is None else strategy
    return AsyncEngine(server, clients, strategy, config, trace=trace,
                       **engine_kwargs)


def _async(max_updates: int, **kwargs) -> RunResult:
    return _async_engine(max_updates, **kwargs).run()


# -- FaultPlan: crash + stale/duplicate + bitflip + server outage ------
def run_sync_chaos(trace=None) -> RunResult:
    return _sync(10, network=_net(uplink_loss=0.1), chaos=_chaos_plan(),
                 device_flops=_SLOW_DEVICES, validation=ValidationConfig(),
                 trace=trace)


def run_async_chaos(trace=None) -> RunResult:
    return _async(30, network=_net(uplink_loss=0.1), chaos=_chaos_plan(),
                  device_flops=_SLOW_DEVICES, validation=ValidationConfig(),
                  trace=trace)


# -- async AdaFL under crashes: halting reads crashed legs' deltas ------
def run_async_adafl_crash(trace=None) -> RunResult:
    policy = AdaptiveCompressionPolicy(min_ratio=4.0, max_ratio=105.0, warmup_rounds=2)
    return _async(
        30, network=_net(), device_flops=_SLOW_DEVICES,
        chaos=FaultPlan(ClientCrashModel(mtbf_s=0.05, mean_downtime_s=0.01)),
        strategy=AdaFLAsync(AdaFLConfig(tau=0.7, policy=policy)), trace=trace,
    )


# -- downlink_retry with jitter ----------------------------------------
def run_sync_downlink_retry(trace=None) -> RunResult:
    return _sync(6, network=_net(downlink_loss=0.5),
                 downlink_retry=_JITTERY_RETRY, trace=trace)


def run_async_downlink_retry(trace=None) -> RunResult:
    return _async(20, network=_net(downlink_loss=0.7, uplink_loss=0.2),
                  downlink_retry=_JITTERY_RETRY, trace=trace)


# -- uplink_retry with jitter ------------------------------------------
def run_sync_uplink_retry(trace=None) -> RunResult:
    return _sync(6, network=_net(uplink_loss=0.5), uplink_retry=_JITTERY_RETRY,
                 trace=trace)


def run_async_uplink_retry(trace=None) -> RunResult:
    """Not digested: compared event by event, times at rel=1e-12."""
    return _async(20, network=_net(uplink_loss=0.5), uplink_retry=_JITTERY_RETRY,
                  trace=trace)


# -- validation against NaN-poisoned uploads ---------------------------
def run_sync_validation_trimmed(trace=None) -> RunResult:
    return _sync(
        6, network=_net(),
        chaos=FaultPlan(PayloadCorruptionModel(prob=0.3, kind="nan")),
        validation=ValidationConfig(trimmed_mean_fallback=True), trace=trace,
    )


def run_async_validation(trace=None) -> RunResult:
    rates = np.full(NUM_CLIENTS, 1e9)
    rates[0] /= 50.0  # one straggler, so the staleness gate fires too
    return _async(
        25, network=_net(), device_flops=rates,
        chaos=FaultPlan(PayloadCorruptionModel(prob=0.3, kind="nan")),
        validation=ValidationConfig(max_staleness=3), trace=trace,
    )


# -- round deadline (sync only) ----------------------------------------
def run_sync_deadline(trace=None) -> RunResult:
    rates = np.full(NUM_CLIENTS, 1e9)
    rates[2] = 1e6  # the straggler trains past the deadline
    return _sync(6, network=_net(uplink_loss=0.5), device_flops=rates,
                 deadline=0.04, uplink_retry=_JITTERY_RETRY, trace=trace)


# -- Fig. 1 data loss + availability churn ------------------------------
def _churn() -> ChurnModel:
    return ChurnModel(mean_on_s=0.08, mean_off_s=0.03, seed=5)


def _dataloss_churn_plan() -> FaultPlan:
    return FaultPlan(UploadLossModel(prob=0.5, client_ids={1, 3}), _churn())


def run_sync_dataloss_churn(trace=None) -> RunResult:
    return _sync(10, rate=0.8, network=_net(uplink_loss=0.2),
                 chaos=_dataloss_churn_plan(), trace=trace)


def run_async_dataloss_churn(trace=None) -> RunResult:
    return _async(25, network=_net(uplink_loss=0.2),
                  chaos=_dataloss_churn_plan(), trace=trace)


# -- all three availability gates at once: precedence and cause labels --
def _three_gate_plan() -> FaultPlan:
    # Spelled in the reverse of gate order: the plan's order decides.
    return FaultPlan(
        StragglerDropoutModel(period=2, client_ids={1, 3}),
        ClientCrashModel(mtbf_s=0.05, mean_downtime_s=0.04),
        _churn(),
    )


def run_sync_dropout_crash_churn(trace=None) -> RunResult:
    return _sync(10, rate=0.8, network=_net(uplink_loss=0.2),
                 chaos=_three_gate_plan(), device_flops=_SLOW_DEVICES, trace=trace)


def run_async_dropout_crash_churn(trace=None) -> RunResult:
    return _async(25, network=_net(uplink_loss=0.2), chaos=_three_gate_plan(),
                  device_flops=_SLOW_DEVICES, trace=trace)


# -- AdaFL's sparse uploads on every path that needs a dense view -------
def _adafl_sync() -> AdaFLSync:
    # tau = 0 passes every client, so each round folds a full cohort.
    policy = AdaptiveCompressionPolicy(warmup_rounds=1)
    return AdaFLSync(AdaFLConfig(tau=0.0, policy=policy))


def _adafl_async() -> AdaFLAsync:
    policy = AdaptiveCompressionPolicy(min_ratio=4.0, max_ratio=105.0, warmup_rounds=2)
    return AdaFLAsync(AdaFLConfig(tau=0.7, policy=policy))


def _corrupt(kind: str) -> FaultPlan:
    return FaultPlan(PayloadCorruptionModel(prob=0.3, kind=kind))


def run_sync_adafl_nan(trace=None) -> RunResult:
    """Deferred validation: a poisoned aggregate is rolled back and the
    survivors are folded again."""
    return _sync(6, network=_net(), strategy=_adafl_sync(), chaos=_corrupt("nan"),
                 validation=ValidationConfig(), trace=trace)


def run_sync_adafl_bitflip(trace=None) -> RunResult:
    return _sync(6, network=_net(), strategy=_adafl_sync(), chaos=_corrupt("bitflip"),
                 validation=ValidationConfig(), trace=trace)


def run_sync_adafl_nan_trimmed(trace=None) -> RunResult:
    # trim_ratio 0.4 trims one value per coordinate from 3 or 4 survivors.
    validation = ValidationConfig(trimmed_mean_fallback=True, trim_ratio=0.4)
    return _sync(6, network=_net(), strategy=_adafl_sync(), chaos=_corrupt("nan"),
                 validation=validation, trace=trace)


def run_sync_adafl_max_norm(trace=None) -> RunResult:
    """The per-update norm screen against blown-up uploads."""
    return _sync(6, network=_net(), strategy=_adafl_sync(), chaos=_corrupt("blowup"),
                 validation=ValidationConfig(max_norm=1e3), trace=trace)


def run_async_adafl_validation(trace=None) -> RunResult:
    return _async(25, network=_net(), strategy=_adafl_async(), chaos=_corrupt("nan"),
                  validation=ValidationConfig(), trace=trace)


class _Killed(RuntimeError):
    """The process dies right after a snapshot lands."""


def _kill_at(updates: int):
    def on_snapshot(engine) -> None:
        if engine._total_updates >= updates:
            raise _Killed()

    return on_snapshot


def run_async_adafl_resume(trace=None) -> RunResult:
    """Killed after the 12th update's snapshot, with uploads still in
    flight, and resumed from the file: one trace, pre-kill then resumed."""
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "run.snapshot"
        engine = _async_engine(
            25, network=_net(), strategy=_adafl_async(), trace=trace,
            snapshot_path=snap, snapshot_every=1, on_snapshot=_kill_at(12),
        )
        try:
            engine.run()
        except _Killed:
            pass
        else:
            raise RuntimeError("the run ended before the snapshot that kills it")
        return load_snapshot(snap, trace=trace, keep_snapshotting=False).resume()


DIGEST_CASES = {
    "sync_chaos": run_sync_chaos,
    "async_chaos": run_async_chaos,
    "sync_downlink_retry": run_sync_downlink_retry,
    "async_downlink_retry": run_async_downlink_retry,
    "sync_uplink_retry": run_sync_uplink_retry,
    "sync_validation_trimmed": run_sync_validation_trimmed,
    "async_validation": run_async_validation,
    "sync_deadline": run_sync_deadline,
    "sync_dataloss_churn": run_sync_dataloss_churn,
    "async_dataloss_churn": run_async_dataloss_churn,
    "sync_dropout_crash_churn": run_sync_dropout_crash_churn,
    "async_dropout_crash_churn": run_async_dropout_crash_churn,
    "async_adafl_crash": run_async_adafl_crash,
    "sync_adafl_nan": run_sync_adafl_nan,
    "sync_adafl_bitflip": run_sync_adafl_bitflip,
    "sync_adafl_nan_trimmed": run_sync_adafl_nan_trimmed,
    "sync_adafl_max_norm": run_sync_adafl_max_norm,
    "async_adafl_validation": run_async_adafl_validation,
    "async_adafl_resume": run_async_adafl_resume,
}

# Compared event by event (see the module docstring).
EVENT_CASES = {"async_uplink_retry": run_async_uplink_retry}


def _records(result: RunResult) -> list[dict]:
    rows = trajectory(result)
    for row, record in zip(rows, result.records):
        row["rejected_uploads"] = record.rejected_uploads
    return rows


def run_traced(fn) -> tuple[str, RunResult]:
    """Run one case; returns its complete JSONL trace and its result."""
    buffer = io.StringIO()
    with EventTrace([JsonlSink(buffer)]) as trace:
        result = fn(trace=trace)
        text = buffer.getvalue()
    return text, result


def digest(fn) -> dict:
    """What the digest file pins for one case."""
    text, result = run_traced(fn)
    return {
        "events": text.count("\n"),
        "trace_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "records_sha256": hashlib.sha256(
            json.dumps(_records(result), sort_keys=True).encode()
        ).hexdigest(),
    }


def event_rows(fn) -> dict:
    """The event-by-event form: ``[type, client, t, data]`` per event."""
    text, result = run_traced(fn)
    events = [json.loads(line) for line in text.splitlines()]
    return {
        "events": [[e["type"], e.get("client"), e["t"], e.get("data", {})]
                   for e in events],
        "records": _records(result),
    }


def _dump(pins: dict) -> str:
    """The file's two sections from one flat ``case -> pin`` dict."""
    return json.dumps({
        "digests": {k: v for k, v in pins.items() if k not in EVENT_CASES},
        "event_cases": {k: v for k, v in pins.items() if k in EVENT_CASES},
    }, indent=1) + "\n"


def main(argv=None) -> int:
    compute = {
        **{name: (lambda fn=fn: digest(fn)) for name, fn in DIGEST_CASES.items()},
        **{name: (lambda fn=fn: event_rows(fn)) for name, fn in EVENT_CASES.items()},
    }
    return regen(
        DIGEST_PATH, compute, _dump, argv,
        load=lambda pinned: {**pinned["digests"], **pinned["event_cases"]},
    )


if __name__ == "__main__":
    raise SystemExit(main())
