"""Engine-level tests for configurable transfer retry policies."""

from dataclasses import replace

import numpy as np
import pytest

from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.server import Server
from repro.fl.sync_engine import SyncEngine
from repro.network.conditions import ClientNetwork, NetworkConditions
from repro.network.link import LinkModel
from repro.sim import DROPPED, EventTrace, RetryPolicy, RingBufferSink

NUM_CLIENTS = 3


@pytest.fixture
def federation(tiny_train, tiny_test, tiny_model_fn):
    parts = np.array_split(np.arange(len(tiny_train)), NUM_CLIENTS)
    clients = [
        Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=60 + i)
        for i in range(NUM_CLIENTS)
    ]
    return Server(tiny_model_fn, tiny_test), clients


def _net(downlink_loss=0.0, uplink_loss=0.0, num_clients=NUM_CLIENTS):
    up = LinkModel(bandwidth_mbps=50.0, latency_ms=2.0, loss_rate=uplink_loss)
    down = LinkModel(bandwidth_mbps=50.0, latency_ms=2.0, loss_rate=downlink_loss)
    return NetworkConditions(
        clients=[ClientNetwork(uplink=up, downlink=down) for _ in range(num_clients)]
    )


def _sync_config(rounds=3, **kwargs):
    return FederationConfig(
        num_rounds=rounds,
        participation_rate=1.0,
        eval_every=1000,
        seed=0,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
        **kwargs,
    )


def _async_config(max_updates=9, **kwargs):
    return FederationConfig(
        num_rounds=10,
        participation_rate=1.0,
        eval_every=1000,
        seed=0,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
        max_sim_time_s=1e9,
        max_updates=max_updates,
        **kwargs,
    )


def _drops(events, reason):
    return [e for e in events if e.type == DROPPED and e.data.get("reason") == reason]


class TestSyncDownlinkRetry:
    def test_retries_recover_participation(self, federation, tiny_train,
                                           tiny_test, tiny_model_fn):
        def run(policy):
            parts = np.array_split(np.arange(len(tiny_train)), NUM_CLIENTS)
            clients = [
                Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=60 + i)
                for i in range(NUM_CLIENTS)
            ]
            server = Server(tiny_model_fn, tiny_test)
            return SyncEngine(
                server, clients, FedAvg(participation_rate=1.0),
                _sync_config(rounds=4, downlink_retry=policy),
                network=_net(downlink_loss=0.5),
            ).run()

        single = run(None)  # legacy: one attempt, drop for the round
        retried = run(RetryPolicy(max_attempts=6, backoff_frac=0.5))
        assert retried.total_uploads > single.total_uploads
        # Every round reached full participation once retries are allowed.
        assert all(r.num_uploads == NUM_CLIENTS for r in retried.records)

    def test_exhaustion_is_a_terminal_drop(self, federation):
        server, clients = federation
        sink = RingBufferSink()
        SyncEngine(
            server, clients, FedAvg(participation_rate=1.0),
            _sync_config(rounds=1, downlink_retry=RetryPolicy(max_attempts=2)),
            network=_net(downlink_loss=0.999999),
            trace=EventTrace([sink]),
        ).run()
        events = _drops(sink.events(), "downlink_lost")
        # One non-terminal attempt drop + the terminal drop per client.
        assert len(events) == NUM_CLIENTS * 2
        terminal = [e for e in events if e.data.get("terminal")]
        assert len(terminal) == NUM_CLIENTS
        assert all(e.data["attempts"] == 2 for e in terminal)

    def test_retries_consume_simulated_time(self, federation):
        server, clients = federation
        sink = RingBufferSink()
        result = SyncEngine(
            server, clients, FedAvg(participation_rate=1.0),
            _sync_config(rounds=2,
                         downlink_retry=RetryPolicy(max_attempts=8,
                                                    backoff_frac=1.0)),
            network=_net(downlink_loss=0.6),
            trace=EventTrace([sink]),
        ).run()
        retried = _drops(sink.events(), "downlink_lost")
        assert retried, "expected at least one lost downlink attempt"
        assert result.total_uploads == 2 * NUM_CLIENTS


class TestSyncUplinkRetry:
    def test_uplink_retries_rescue_uploads(self, federation, tiny_train,
                                           tiny_test, tiny_model_fn):
        def run(policy):
            parts = np.array_split(np.arange(len(tiny_train)), NUM_CLIENTS)
            clients = [
                Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=60 + i)
                for i in range(NUM_CLIENTS)
            ]
            server = Server(tiny_model_fn, tiny_test)
            return SyncEngine(
                server, clients, FedAvg(participation_rate=1.0),
                _sync_config(rounds=4, uplink_retry=policy),
                network=_net(uplink_loss=0.5),
            ).run()

        single = run(None)
        retried = run(RetryPolicy(max_attempts=6, backoff_frac=0.5))
        assert retried.total_uploads > single.total_uploads
        assert retried.total_dropped < single.total_dropped


class TestAsyncTerminalDownlink:
    def test_downlink_exhaustion_stops_the_client(self, federation):
        server, clients = federation
        sink = RingBufferSink()
        result = AsyncEngine(
            server, clients, FedAsync(),
            _async_config(max_updates=6),
            network=_net(downlink_loss=0.999999),
            trace=EventTrace([sink]),
        ).run()
        # Default async policy: 8 attempts, then the client is abandoned
        # instead of retrying forever (the run terminates).
        terminal = [
            e for e in _drops(sink.events(), "downlink_lost")
            if e.data.get("terminal")
        ]
        assert len(terminal) == NUM_CLIENTS
        assert all(e.data["attempts"] == 8 for e in terminal)
        assert result.total_uploads == 0

    def test_custom_cap_respected(self, federation):
        server, clients = federation
        sink = RingBufferSink()
        AsyncEngine(
            server, clients, FedAsync(),
            _async_config(max_updates=6,
                          downlink_retry=RetryPolicy(max_attempts=3)),
            network=_net(downlink_loss=0.999999),
            trace=EventTrace([sink]),
        ).run()
        events = _drops(sink.events(), "downlink_lost")
        # 2 non-terminal retries + 1 terminal drop per client.
        assert len(events) == NUM_CLIENTS * 3
        terminal = [e for e in events if e.data.get("terminal")]
        assert len(terminal) == NUM_CLIENTS
        assert all(e.data["attempts"] == 3 for e in terminal)

    def test_lossless_downlinks_unaffected(self, federation):
        server, clients = federation
        result = AsyncEngine(
            server, clients, FedAsync(),
            _async_config(max_updates=6),
            network=_net(downlink_loss=0.0),
        ).run()
        assert result.total_uploads == 6


class TestAsyncUplinkRetry:
    """``uplink_retry`` under the reactive engine (default: one attempt)."""

    @staticmethod
    def _run(tiny_train, tiny_test, tiny_model_fn, policy, *, uplink_loss,
             num_clients=NUM_CLIENTS, horizon_s=None, **config):
        parts = np.array_split(np.arange(len(tiny_train)), num_clients)
        clients = [
            Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=60 + i)
            for i in range(num_clients)
        ]
        net = _net(uplink_loss=uplink_loss, num_clients=num_clients)
        cfg = _async_config(uplink_retry=policy, **config)
        if horizon_s is not None:
            cfg = replace(cfg, max_sim_time_s=horizon_s)
        sink = RingBufferSink()
        result = AsyncEngine(
            Server(tiny_model_fn, tiny_test), clients, FedAsync(), cfg,
            network=net, trace=EventTrace([sink]),
        ).run()
        return result, sink.events()

    @staticmethod
    def _leg_ending_losses(events):
        """``uplink_lost`` drops that ended a leg (not a per-attempt one)."""
        return [e for e in _drops(events, "uplink_lost") if "attempt" not in e.data]

    def test_retries_rescue_uploads(self, tiny_train, tiny_test, tiny_model_fn):
        args = (tiny_train, tiny_test, tiny_model_fn)
        _, single = self._run(*args, None, uplink_loss=0.5, max_updates=12)
        _, retried = self._run(
            *args, RetryPolicy(max_attempts=6, backoff_frac=0.5),
            uplink_loss=0.5, max_updates=12,
        )
        # Same 12 absorbed updates; far fewer trainings thrown away.
        assert len(self._leg_ending_losses(retried)) < len(
            self._leg_ending_losses(single)
        )
        assert _drops(retried, "uplink_lost")  # the retries really fired

    def test_exhaustion_is_terminal_and_the_client_re_requests(
        self, tiny_train, tiny_test, tiny_model_fn
    ):
        attempts = 3
        result, events = self._run(
            tiny_train, tiny_test, tiny_model_fn,
            RetryPolicy(max_attempts=attempts, backoff_frac=0.5),
            uplink_loss=0.999999, max_updates=6, horizon_s=0.2,
        )
        assert result.total_uploads == 0
        terminal = self._leg_ending_losses(events)
        assert terminal
        assert all(
            e.data == {"reason": "uplink_lost", "terminal": True, "attempts": attempts}
            for e in terminal
        )
        for cid in range(NUM_CLIENTS):
            mine = [e for e in events if e.client == cid]
            losses = [e for e in mine if e.type == DROPPED]
            # N-1 per-attempt drops, then the terminal one, repeating.
            expected = [1, 2, None] * (len(losses) // attempts)
            assert [e.data.get("attempt") for e in losses] == expected
            for e in (e for e in losses if e.data.get("terminal")):
                # The client goes again from a fresh model arrival,
                # landing the instant the last attempt was given up.
                after = [x for x in mine if x.seq > e.seq]
                assert not after or (after[0].type, after[0].t) == ("train_start", e.t)

    def test_jitter_draws_only_from_the_retry_stream(
        self, tiny_train, tiny_test, tiny_model_fn
    ):
        # One client: the event order is fixed, so the root-RNG-driven
        # loss sequence can only change if jitter drew from the root.
        def run(jitter):
            _, events = self._run(
                tiny_train, tiny_test, tiny_model_fn,
                RetryPolicy(max_attempts=4, backoff_frac=0.5, jitter_frac=jitter),
                uplink_loss=0.5, num_clients=1, max_updates=10,
            )
            ends = [e for e in events if e.type == "uplink_end"]
            return [e.data["ok"] for e in ends], [e.t for e in ends]

        plain_ok, plain_t = run(0.0)
        jitter_ok, jitter_t = run(0.3)
        assert plain_ok == jitter_ok and not all(plain_ok)
        assert plain_t != jitter_t  # the jitter did move the retries

    def test_every_leg_ends_exactly_once(self, tiny_train, tiny_test, tiny_model_fn):
        _, events = self._run(
            tiny_train, tiny_test, tiny_model_fn,
            RetryPolicy(max_attempts=2, backoff_frac=0.5, jitter_frac=0.2),
            uplink_loss=0.6, max_updates=15,
        )
        for cid in range(NUM_CLIENTS):
            mine = [e for e in events if e.client == cid]
            trained = sum(e.type == "train_end" for e in mine)
            delivered = sum(e.type == "uplink_end" and e.data["ok"] for e in mine)
            lost = len(self._leg_ending_losses(mine))
            assert trained > 0 and trained == delivered + lost
