"""Wire frames threaded through the engines.

Three guarantees:

* a bit flipped in an upload frame is caught by the CRC at server
  receipt and surfaces as a ``corrupt_frame`` rejection — on both
  engines, with or without a validator configured;
* every charged transfer leg carries its frame metadata in the trace
  (``frame_len == nbytes + FRAME_OVERHEAD``), so the honest framed
  size is always recoverable from a recording;
* the byte-accounted trajectories of the pinned equivalence cases are
  bit-identical with frames enabled (the equivalence suite proper
  pins this against the committed baseline; here we pin the frame
  metadata invariant on one sync and one async case).
"""

from dataclasses import replace

import pytest

from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.sync_engine import SyncEngine
from repro.fl.validation import ValidationConfig
from repro.sim import (
    DOWNLINK_END,
    DROPPED,
    EventTrace,
    FaultPlan,
    PayloadCorruptionModel,
    RingBufferSink,
    UPLINK_END,
)
from repro.wire import FRAME_OVERHEAD
from tests.fl.equiv_cases import (
    _async_config,
    _federation,
    _sync_config,
    run_async_fedasync_net,
    run_sync_fedavg_net_faults,
)

pytestmark = pytest.mark.wire

BITFLIP = FaultPlan(PayloadCorruptionModel(prob=1.0, kind="bitflip"))


def _drops_by_reason(events):
    out = {}
    for ev in events:
        if ev.type == DROPPED:
            reason = ev.data["reason"]
            out[reason] = out.get(reason, 0) + 1
    return out


class TestBitflipCaughtByCrc:
    @pytest.mark.parametrize("validated", [False, True])
    def test_sync(self, validated):
        server, clients = _federation(10)
        cfg = replace(
            _sync_config(3),
            validation=ValidationConfig() if validated else None,
        )
        sink = RingBufferSink()
        engine = SyncEngine(
            server, clients, FedAvg(participation_rate=1.0), cfg,
            chaos=BITFLIP, trace=EventTrace([sink]),
        )
        result = engine.run()
        # Every upload was tampered with, every tamper was caught:
        # nothing reached aggregation and the model never moved.
        assert result.total_uploads == 0
        assert server.version == 0
        drops = _drops_by_reason(sink.events())
        assert drops.get("corrupt_frame", 0) > 0
        assert result.total_rejected == drops["corrupt_frame"]

    def test_async_total_corruption_stalls_the_model(self):
        server, clients = _federation(20)
        sink = RingBufferSink()
        engine = AsyncEngine(
            server, clients, FedAsync(),
            # Corrupt uploads never count as updates, so the update
            # budget can't stop the run — bound it by sim time instead
            # (compute on this tiny model takes ~2e-5 s per cycle).
            replace(_async_config(6), max_sim_time_s=0.002),
            chaos=BITFLIP, trace=EventTrace([sink]),
        )
        result = engine.run()
        assert result.total_uploads == 0
        assert server.version == 0
        assert _drops_by_reason(sink.events()).get("corrupt_frame", 0) > 0

    def test_async_partial_corruption_counts_rejections(self):
        server, clients = _federation(20)
        sink = RingBufferSink()
        engine = AsyncEngine(
            server, clients, FedAsync(), _async_config(8),
            chaos=FaultPlan(PayloadCorruptionModel(prob=0.5, kind="bitflip")),
            trace=EventTrace([sink]),
        )
        result = engine.run()
        # Survivors advance the model; tampered frames are rejected and
        # show up in the records the surviving aggregations close.
        assert result.total_uploads > 0
        drops = _drops_by_reason(sink.events())
        assert drops.get("corrupt_frame", 0) > 0
        assert result.total_rejected > 0


class _TruncatingCorruption(PayloadCorruptionModel):
    """Every upload arrives cut down to its first ``keep`` bytes."""

    def __init__(self, keep: int):
        super().__init__(prob=1.0, kind="bitflip")
        self.keep = keep

    def corrupt_upload(self, client_id, delta, frame_bytes):
        return delta, frame_bytes[: self.keep]


class TestTruncatedFrameFailsClosed:
    """An upload truncated to nothing — or to its bare header — must be
    refused at receipt by both engines, never aggregated unchecked."""

    @pytest.mark.parametrize("keep", [0, FRAME_OVERHEAD], ids=["empty", "header_only"])
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_rejected_as_corrupt_frame(self, mode, keep):
        chaos = FaultPlan(_TruncatingCorruption(keep))
        sink = RingBufferSink()
        if mode == "sync":
            server, clients = _federation(10)
            engine = SyncEngine(
                server, clients, FedAvg(participation_rate=1.0), _sync_config(2),
                chaos=chaos, trace=EventTrace([sink]),
            )
        else:
            server, clients = _federation(20)
            engine = AsyncEngine(
                server, clients, FedAsync(),
                replace(_async_config(6), max_sim_time_s=0.002),
                chaos=chaos, trace=EventTrace([sink]),
            )
        result = engine.run()
        drops = _drops_by_reason(sink.events())
        assert set(drops) == {"corrupt_frame"} and drops["corrupt_frame"] > 0
        assert result.total_uploads == 0  # neither engine counts the update
        assert server.version == 0


class TestFrameMetadataOnEveryLeg:
    def _assert_framed(self, events):
        legs = [ev for ev in events if ev.type in (UPLINK_END, DOWNLINK_END)]
        assert legs, "no transfer legs recorded"
        for ev in legs:
            assert ev.data["frame_len"] == ev.data["nbytes"] + FRAME_OVERHEAD
            assert ev.data["codec"]

    def test_sync_case(self):
        sink = RingBufferSink()
        run_sync_fedavg_net_faults(trace=EventTrace([sink]))
        self._assert_framed(sink.events())

    def test_async_case(self):
        sink = RingBufferSink()
        run_async_fedasync_net(trace=EventTrace([sink]))
        self._assert_framed(sink.events())
