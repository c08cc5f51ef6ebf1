"""Engine event traces: fault/churn visibility, determinism, replay.

These tests pin the tentpole contracts of the ``repro.sim`` refactor:

* both engines consult every availability / upload-loss model of the
  fault plan — a test's own fake included — and every resulting
  drop/halt is visible in the trace with its cause;
* the async engine charges lost downlink attempts individually and
  retries with the named backoff;
* the same spec + seed writes byte-identical JSONL traces — and so
  does a plan made only of models that cannot fire;
* replaying a recorded trace through the metrics reducer reproduces
  the engine's own ``RunResult`` exactly.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.async_engine import DOWNLINK_RETRY_BACKOFF, AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.metrics import run_result_from_trace
from repro.fl.sync_engine import SyncEngine
from repro.network.conditions import ClientNetwork, NetworkConditions
from repro.network.link import LinkModel
from repro.sim import (
    AGGREGATED,
    AvailabilityModel,
    ChurnModel,
    ClientCrashModel,
    DOWNLINK_END,
    DROPPED,
    EventTrace,
    FaultPlan,
    HALTED,
    JsonlSink,
    PayloadCorruptionModel,
    RingBufferSink,
    RUN_START,
    SELECTED,
    ServerOutageModel,
    StaleUploadModel,
    StragglerDropoutModel,
    UploadLossModel,
    WOKEN,
    load_trace,
)

from tests.fl.equiv_cases import (
    CASES,
    NUM_CLIENTS,
    _async_config,
    _federation,
    _sync_config,
    trajectory,
)
from tests.fl.trace_digest_cases import _async, _net, _sync, run_traced


class FixedOffline(AvailabilityModel):
    """A minimal availability fake: the given clients are offline until
    ``until``, labelled the way churn labels it."""

    cause = "churn"
    woken = "online"

    def __init__(self, offline_ids, until: float = 1e9):
        super().__init__(offline_ids)
        self.until = until

    def is_down(self, client_id: int, t: float, round_index: int) -> bool:
        return client_id in self.client_ids and t < self.until

    def next_up(self, client_id: int, t: float) -> float:
        return self.until if self.is_down(client_id, t, 0) else t


def _ring_engine(engine_cls, *args, **kwargs):
    sink = RingBufferSink()
    engine = engine_cls(*args, trace=EventTrace([sink]), **kwargs)
    return engine, sink


def _events(sink, etype, **match):
    out = []
    for e in sink.events():
        if e.type != etype:
            continue
        if all(e.data.get(k) == v for k, v in match.items()):
            out.append(e)
    return out


class TestSyncTrace:
    def test_fault_drops_traced(self):
        server, clients = _federation(10)
        chaos = FaultPlan(UploadLossModel(prob=1.0, client_ids={1}))
        engine, sink = _ring_engine(
            SyncEngine, server, clients, FedAvg(participation_rate=1.0),
            _sync_config(2), chaos=chaos,
        )
        result = engine.run()
        drops = _events(sink, DROPPED, reason="fault")
        assert len(drops) == 2 and all(e.client == 1 for e in drops)
        assert result.total_dropped == 2
        for record in result.records:
            assert 1 not in record.participants

    def test_dropout_fault_absentees_traced_offline(self):
        server, clients = _federation(10)
        chaos = FaultPlan(StragglerDropoutModel(period=2, client_ids={2}))
        engine, sink = _ring_engine(
            SyncEngine, server, clients, FedAvg(participation_rate=1.0),
            _sync_config(2), chaos=chaos,
        )
        result = engine.run()
        offline = _events(sink, DROPPED, reason="offline", cause="fault")
        # (round + id) % 2: client 2 is absent in round 1 only.
        assert [(e.client, e.t) for e in offline] == [(2, result.records[0].sim_time_s)]
        # Absentees are not counted as dropped uploads (never selected).
        assert result.total_dropped == 0

    def test_churn_under_sync_engine(self):
        server, clients = _federation(10)
        engine, sink = _ring_engine(
            SyncEngine, server, clients, FedAvg(participation_rate=1.0),
            _sync_config(3), chaos=FaultPlan(FixedOffline({0, 3})),
        )
        result = engine.run()
        offline = _events(sink, DROPPED, reason="offline", cause="churn")
        assert sorted({e.client for e in offline}) == [0, 3]
        assert len(offline) == 6  # both clients, every round
        for record in result.records:
            assert not {0, 3} & set(record.participants)
            assert record.num_uploads == NUM_CLIENTS - 2
        # The availability set handed to the strategy excludes them too.
        selected = _events(sink, SELECTED)
        assert all(set(e.data["available"]) == {1, 2, 4} for e in selected)

    def test_deadline_drops_traced(self):
        server, clients = _federation(10)
        # 1 B/s effective: every transfer blows the 5 s deadline.
        slow = LinkModel(bandwidth_mbps=1e-5, latency_ms=0.0)
        net = NetworkConditions(
            clients=[ClientNetwork(uplink=slow, downlink=slow)
                     for _ in range(NUM_CLIENTS)]
        )
        engine, sink = _ring_engine(
            SyncEngine, server, clients, FedAvg(participation_rate=1.0),
            _sync_config(1, deadline=5.0), network=net,
        )
        result = engine.run()
        assert len(_events(sink, DROPPED, reason="deadline")) == NUM_CLIENTS
        assert result.records[0].num_uploads == 0
        assert result.records[0].sim_time_s == pytest.approx(5.0)


class TestAsyncTrace:
    def test_dataloss_faults_under_async_engine(self):
        server, clients = _federation(20)
        chaos = FaultPlan(UploadLossModel(prob=1.0, client_ids={0}))
        engine, sink = _ring_engine(
            AsyncEngine, server, clients, FedAsync(), _async_config(8),
            chaos=chaos,
        )
        result = engine.run()
        drops = _events(sink, DROPPED, reason="fault")
        assert drops and all(e.client == 0 for e in drops)
        # Client 0 trains and uploads but never lands an aggregation.
        aggregated = _events(sink, AGGREGATED)
        assert all(e.client != 0 for e in aggregated)
        assert result.total_dropped == len(drops)

    def test_dropout_faults_halt_until_version_change(self):
        server, clients = _federation(20)
        # Version 0: (0 + 1) % 2 == 1 -> client 1 parks immediately.
        chaos = FaultPlan(StragglerDropoutModel(period=2, client_ids={1}))
        engine, sink = _ring_engine(
            AsyncEngine, server, clients, FedAsync(), _async_config(8),
            chaos=chaos,
        )
        engine.run()
        halts = _events(sink, HALTED, cause="fault")
        assert halts and halts[0].client == 1
        wakes = _events(sink, WOKEN, cause="version")
        assert any(e.client == 1 for e in wakes)

    def test_churn_halts_and_wakes(self):
        server, clients = _federation(20)
        # Without a network this run finishes around t=2.3e-5 s, so the
        # resume instant must fall inside that window to be observable.
        resume = 1.5e-5
        engine, sink = _ring_engine(
            AsyncEngine, server, clients, FedAsync(), _async_config(6),
            chaos=FaultPlan(FixedOffline({2}, until=resume)),
        )
        engine.run()
        halted = _events(sink, HALTED, cause="churn")
        assert [e.client for e in halted] == [2]
        assert halted[0].data["until"] == pytest.approx(resume)
        woken = _events(sink, WOKEN, cause="online")
        assert [e.client for e in woken] == [2]
        assert woken[0].t == pytest.approx(resume)

    def test_lost_downlinks_charged_per_attempt(self):
        server, clients = _federation(20)
        lossy_down = LinkModel(bandwidth_mbps=8.0, latency_ms=5.0, loss_rate=0.6)
        up = LinkModel(bandwidth_mbps=8.0, latency_ms=5.0)
        net = NetworkConditions(
            clients=[ClientNetwork(uplink=up, downlink=lossy_down)
                     for _ in range(NUM_CLIENTS)]
        )
        engine, sink = _ring_engine(
            AsyncEngine, server, clients, FedAsync(), _async_config(6), network=net,
        )
        result = engine.run()
        lost = _events(sink, DROPPED, reason="downlink_lost")
        assert lost, "loss_rate=0.6 must lose at least one broadcast"
        # Every attempt (lost or not) carries its own byte charge.
        ends = _events(sink, DOWNLINK_END)
        assert len(_events(sink, DOWNLINK_END, ok=False)) == len(lost)
        assert all(e.data["nbytes"] > 0 for e in ends)
        # Bytes committed to records = every attempt dispatched before
        # the last aggregation, each charged exactly once.
        last_agg_seq = _events(sink, AGGREGATED)[-1].seq
        charged = sum(e.data["nbytes"] for e in ends if e.seq < last_agg_seq)
        assert result.total_bytes_down == charged

    def test_retry_backoff_delay(self):
        server, clients = _federation(20)
        lossy_down = LinkModel(bandwidth_mbps=8.0, latency_ms=5.0, loss_rate=0.6)
        up = LinkModel(bandwidth_mbps=8.0, latency_ms=5.0)
        net = NetworkConditions(
            clients=[ClientNetwork(uplink=up, downlink=lossy_down)
                     for _ in range(NUM_CLIENTS)]
        )
        engine, sink = _ring_engine(
            AsyncEngine, server, clients, FedAsync(), _async_config(4), network=net,
        )
        engine.run()
        events = sink.events()
        lost_ends = [e for e in events if e.type == DOWNLINK_END and not e.data["ok"]]
        assert lost_ends
        for end in lost_ends:
            # The retry's fresh attempt starts (1 + backoff) * duration
            # after the failed dispatch began.
            start = next(
                e for e in events
                if e.seq == end.seq - 1 and e.type == "downlink_start"
            )
            duration = end.t - start.t
            expected = start.t + (1.0 + DOWNLINK_RETRY_BACKOFF) * duration
            retry_start = next(
                (
                    e for e in events
                    if e.seq > end.seq
                    and e.type == "downlink_start"
                    and e.client == end.client
                ),
                None,
            )
            if retry_start is not None:  # horizon may cut the last retry
                assert retry_start.t == pytest.approx(expected)


class TestDeterminismAndReplay:
    @pytest.mark.parametrize("case", ["sync_fedavg_net_faults", "async_fedasync_net"])
    def test_jsonl_byte_identical_across_runs(self, case, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"{case}_{i}.jsonl"
            with EventTrace([JsonlSink(path)]) as trace:
                CASES[case](trace=trace)
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.count(b"\n") > 10

    @pytest.mark.parametrize("case", ["sync_fedavg_net_faults", "async_fedasync_net"])
    def test_reducer_replay_matches_engine_result(self, case, tmp_path):
        path = tmp_path / "replay.jsonl"
        with EventTrace([JsonlSink(path)]) as trace:
            direct = CASES[case](trace=trace)
        replayed = run_result_from_trace(load_trace(path))
        assert replayed.method == direct.method
        assert replayed.num_clients == direct.num_clients
        assert replayed.model_bytes == direct.model_bytes
        assert trajectory(replayed) == trajectory(direct)
        # Async traces additionally carry the (new) drop accounting.
        assert [r.dropped_uploads for r in replayed.records] == [
            r.dropped_uploads for r in direct.records
        ]


# Models that cannot fire, one list per kind (a plan holds at most one
# of each): probability 0, nobody covered, or a first period far beyond
# any run's horizon.
_INERT_MODELS = [
    [lambda: ChurnModel(mean_on_s=1e12, start_online_prob=1.0),
     lambda: ChurnModel(start_online_prob=0.0, client_ids=())],
    [lambda: ClientCrashModel(mtbf_s=1e12, mean_downtime_s=1.0),
     lambda: ClientCrashModel(mtbf_s=1e-3, mean_downtime_s=1.0, client_ids=())],
    [lambda: StragglerDropoutModel(client_ids=())],
    [lambda: UploadLossModel(prob=0.0),
     lambda: UploadLossModel(prob=1.0, client_ids=())],
    [lambda: PayloadCorruptionModel(prob=0.0, kind="bitflip"),
     lambda: PayloadCorruptionModel(prob=1.0, kind="nan", client_ids=())],
    [lambda: StaleUploadModel(),
     lambda: StaleUploadModel(delay_prob=1.0, duplicate_prob=1.0, client_ids=())],
    [lambda: ServerOutageModel(windows=[(1e9, 2e9)])],
]
_INERT_CHOICES = [
    (kind, make) for kind, makers in enumerate(_INERT_MODELS) for make in makers
]


def _lossy_run(engine: str, chaos):
    """A short run whose every leg draws from the root RNG."""
    net = _net(uplink_loss=0.2, downlink_loss=0.1)
    if engine == "sync":
        return lambda trace: _sync(4, rate=0.8, network=net, chaos=chaos, trace=trace)
    return lambda trace: _async(12, network=net, chaos=chaos, trace=trace)


@functools.lru_cache(maxsize=None)
def _plain_trace(engine: str) -> str:
    return run_traced(_lossy_run(engine, None))[0]


class TestInertPlan:
    """The plan's inertness contract, adopted models included."""

    @settings(max_examples=30, deadline=None)
    @given(
        engine=st.sampled_from(["sync", "async"]),
        picks=st.lists(
            st.sampled_from(_INERT_CHOICES), min_size=1, unique_by=lambda p: p[0]
        ),
    )
    def test_models_that_cannot_fire_leave_the_trace_bytes_alone(self, engine, picks):
        plan = FaultPlan(*(make() for _, make in picks))
        text, _ = run_traced(_lossy_run(engine, plan))
        assert text == _plain_trace(engine)

    def test_no_availability_model_keeps_the_cached_id_list(self):
        """O(1) at population scale: payload / fate / server models do
        not put the round on the per-client availability loop."""
        server, clients = _federation(10)
        chaos = FaultPlan(
            PayloadCorruptionModel(prob=0.5), StaleUploadModel(delay_prob=0.5),
            ServerOutageModel(windows=[(1.0, 2.0)]), UploadLossModel(),
        )
        for plan in (None, chaos):
            engine = SyncEngine(
                server, clients, FedAvg(participation_rate=1.0), _sync_config(1),
                chaos=plan,
            )
            assert engine._available_ids(0, 0.0) is engine.clients.all_ids()


class TestRunHeader:
    def test_headers_identify_mode(self):
        server, clients = _federation(10)
        engine, sink = _ring_engine(
            SyncEngine, server, clients, FedAvg(participation_rate=1.0), _sync_config(1)
        )
        engine.run()
        header = _events(sink, RUN_START)[0].data
        assert header["mode"] == "sync"
        assert header["num_clients"] == NUM_CLIENTS
        assert header["model_bytes"] > 0
