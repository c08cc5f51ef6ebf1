"""Crash-safe checkpoint/resume: continuation must be bit-identical.

The pinned property: run a federation once uninterrupted (the
reference), then run the identical federation with periodic snapshots
and *kill it* mid-run (``on_snapshot`` raises), restore from the
snapshot file, and finish.  The pre-crash trace bytes concatenated
with the post-resume trace bytes must equal the reference trace
byte-for-byte, and the resumed ``RunResult`` must serialise to the
exact reference dict — the snapshot captures the kernel clock, event
queue, and every RNG stream mid-flight.
"""

import numpy as np
import pytest

from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.persist import run_result_to_dict
from repro.fl.snapshot import SNAPSHOT_VERSION, load_snapshot
from repro.fl.sync_engine import SyncEngine
from repro.fl.validation import ValidationConfig
from repro.sim import (
    ClientCrashModel,
    EventTrace,
    FaultPlan,
    JsonlSink,
    PayloadCorruptionModel,
)
from tests.fl.equiv_cases import (
    _async_config,
    _federation,
    _jittery_net,
    _sync_config,
)


class _Tripwire:
    """Unpickling this touches ``path``: proof that pickle ran."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return type(self.path).touch, (self.path,)


class _Killed(RuntimeError):
    """Simulated process death immediately after a snapshot landed."""


def _kill_when(attr, target):
    def on_snapshot(engine):
        if getattr(engine, attr) >= target:
            raise _Killed()

    return on_snapshot


def _run_crash_resume(build_engine, kill_at_attr, kill_at, tmp_path):
    """Reference run, crashed run, resumed run; returns the three artifacts."""
    ref_trace = tmp_path / "ref.jsonl"
    trace = EventTrace([JsonlSink(ref_trace)])
    reference = build_engine(trace=trace).run()
    trace.close()

    snap = tmp_path / "run.snapshot"
    pre_trace = tmp_path / "pre.jsonl"
    trace = EventTrace([JsonlSink(pre_trace)])
    engine = build_engine(
        trace=trace,
        snapshot_path=snap,
        snapshot_every=1,
        on_snapshot=_kill_when(kill_at_attr, kill_at),
    )
    with pytest.raises(_Killed):
        engine.run()
    trace.close()

    post_trace = tmp_path / "post.jsonl"
    trace = EventTrace([JsonlSink(post_trace)])
    restored = load_snapshot(snap, trace=trace, keep_snapshotting=False)
    resumed = restored.resume()
    trace.close()

    joined = pre_trace.read_bytes() + post_trace.read_bytes()
    return reference, resumed, ref_trace.read_bytes(), joined


class TestSyncResume:
    def test_resume_is_bit_identical(self, tmp_path):
        def build(trace=None, **kwargs):
            server, clients = _federation(10)
            return SyncEngine(
                server, clients, FedAvg(participation_rate=1.0),
                _sync_config(4), network=_jittery_net(uplink_loss=0.2),
                trace=trace, **kwargs,
            )

        reference, resumed, ref_bytes, joined = _run_crash_resume(
            build, "_next_round", 2, tmp_path
        )
        assert joined == ref_bytes
        assert run_result_to_dict(resumed) == run_result_to_dict(reference)

    def test_resume_under_chaos_and_validation(self, tmp_path):
        # Fault-model streams and the validator's serial state live in
        # the snapshot too; chaos runs must resume exactly.
        def build(trace=None, **kwargs):
            server, clients = _federation(10)
            cfg = _sync_config(4)
            from dataclasses import replace

            cfg = replace(cfg, validation=ValidationConfig(trimmed_mean_fallback=True))
            chaos = FaultPlan(
                ClientCrashModel(mtbf_s=0.05, mean_downtime_s=0.02),
                PayloadCorruptionModel(prob=0.3, kind="nan"),
            )
            return SyncEngine(
                server, clients, FedAvg(participation_rate=1.0),
                cfg, network=_jittery_net(), chaos=chaos,
                trace=trace, **kwargs,
            )

        reference, resumed, ref_bytes, joined = _run_crash_resume(
            build, "_next_round", 2, tmp_path
        )
        assert joined == ref_bytes
        assert run_result_to_dict(resumed) == run_result_to_dict(reference)


class TestAsyncResume:
    def test_resume_is_bit_identical(self, tmp_path):
        def build(trace=None, **kwargs):
            server, clients = _federation(20)
            return AsyncEngine(
                server, clients, FedAsync(), _async_config(12),
                network=_jittery_net(), trace=trace, **kwargs,
            )

        reference, resumed, ref_bytes, joined = _run_crash_resume(
            build, "_total_updates", 6, tmp_path
        )
        assert joined == ref_bytes
        assert run_result_to_dict(resumed) == run_result_to_dict(reference)


class TestResumeCompletedRun:
    def test_async_resume_at_exact_budget_is_a_noop(self, tmp_path):
        # The final snapshot can land exactly at max_updates (the run
        # finishes right after writing it).  Resuming it must not
        # process the still-queued in-flight arrivals.
        snap = tmp_path / "run.snapshot"

        def build(**kwargs):
            server, clients = _federation(20)
            return AsyncEngine(
                server, clients, FedAsync(), _async_config(12),
                network=_jittery_net(), **kwargs,
            )

        reference = build().run()
        completed = build(snapshot_path=snap, snapshot_every=12).run()
        assert run_result_to_dict(completed) == run_result_to_dict(reference)
        resumed = load_snapshot(snap, keep_snapshotting=False).resume()
        assert resumed.total_uploads == reference.total_uploads
        assert run_result_to_dict(resumed) == run_result_to_dict(reference)


class TestSnapshotFile:
    def test_snapshot_is_atomic_and_versioned(self, tmp_path):
        import pickle

        from repro.wire import unseal

        server, clients = _federation(10)
        snap = tmp_path / "run.snapshot"
        SyncEngine(
            server, clients, FedAvg(participation_rate=1.0), _sync_config(2),
            snapshot_path=snap, snapshot_every=1,
        ).run()
        assert snap.exists()
        assert not (tmp_path / "run.snapshot.tmp").exists()
        state = pickle.loads(unseal(snap.read_bytes()))
        assert state["snapshot_version"] == SNAPSHOT_VERSION
        assert state["mode"] == "sync"
        # One fault vocabulary: the plan is the only fault state aboard.
        assert "chaos" in state and not {"faults", "churn"} & set(state)

    def test_unknown_version_rejected(self, tmp_path):
        import pickle

        from repro.wire import FrameError, seal, unseal

        server, clients = _federation(10)
        snap = tmp_path / "run.snapshot"
        SyncEngine(
            server, clients, FedAvg(participation_rate=1.0), _sync_config(2),
            snapshot_path=snap, snapshot_every=1,
        ).run()
        state = pickle.loads(unseal(snap.read_bytes()))
        # 1 is the format that carried ``faults``/``churn`` beside the
        # plan, 2 the one whose client state carried per-layer ``layers``.
        for version in (99, 2, 1, None):
            state["snapshot_version"] = version
            snap.write_bytes(seal(pickle.dumps(state)))
            with pytest.raises(ValueError, match="snapshot version"):
                load_snapshot(snap)
        # A bare pickle stream is the pre-envelope format, which no CRC
        # covers: it is refused before pickle sees it.
        tripped = tmp_path / "tripped"
        snap.write_bytes(pickle.dumps(_Tripwire(tripped)))
        with pytest.raises(FrameError):
            load_snapshot(snap)
        assert not tripped.exists()

    def test_float64_dgc_version_rejected(self, tmp_path):
        """Version 3 pickled DGC compressors with float64 momentum and
        residual; a version-4 file carries them at float32 and only a
        version-4 file loads."""
        import pickle

        from repro.core.adafl import AdaFLAsync
        from repro.wire import seal, unseal

        server, clients = _federation(20)
        snap = tmp_path / "run.snapshot"
        AsyncEngine(
            server, clients, AdaFLAsync(), _async_config(6),
            snapshot_path=snap, snapshot_every=1,
        ).run()
        state = pickle.loads(unseal(snap.read_bytes()))
        assert state["snapshot_version"] == SNAPSHOT_VERSION == 4
        population = state["clients"]
        comps = [population[cid].compressor for cid in list(population.live_ids())]
        assert comps
        for comp in comps:
            assert comp._velocity.dtype == comp._residual.dtype == np.float32
        load_snapshot(snap)
        state["snapshot_version"] = 3
        snap.write_bytes(seal(pickle.dumps(state)))
        with pytest.raises(ValueError, match="unsupported snapshot version 3"):
            load_snapshot(snap)

    def test_resumed_engine_can_keep_snapshotting(self, tmp_path):
        server, clients = _federation(10)
        snap = tmp_path / "run.snapshot"
        engine = SyncEngine(
            server, clients, FedAvg(participation_rate=1.0), _sync_config(4),
            snapshot_path=snap, snapshot_every=1,
            on_snapshot=_kill_when("_next_round", 2),
        )
        with pytest.raises(_Killed):
            engine.run()
        mtime = snap.stat().st_mtime_ns
        restored = load_snapshot(snap)  # keep_snapshotting=True default
        restored.resume()
        assert snap.stat().st_mtime_ns > mtime  # later rounds re-snapshotted
