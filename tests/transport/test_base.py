"""Transport config, errors, setup bundle, and retry-jitter determinism."""

import dataclasses

import pytest

from repro.sim.kernel import SimKernel
from repro.sim.retry import RetryPolicy
from repro.transport import (
    PeerGone,
    TransportConfig,
    TransportError,
    TransportTimeout,
    WorkerError,
    WorkerSetup,
)


class TestTransportConfig:
    def test_defaults_are_valid(self):
        config = TransportConfig()
        assert config.retry.max_attempts >= 1
        assert config.max_payload_nbytes > 0

    @pytest.mark.parametrize(
        "field",
        [
            "connect_timeout_s",
            "deadline_s",
            "heartbeat_interval_s",
            "backoff_base_s",
            "reconnect_wait_s",
        ],
    )
    def test_positive_seconds_enforced(self, field):
        with pytest.raises(ValueError):
            dataclasses.replace(TransportConfig(), **{field: 0.0})

    def test_payload_cap_and_attempts_validated(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TransportConfig(), max_payload_nbytes=0)
        with pytest.raises(ValueError):
            dataclasses.replace(TransportConfig(), reconnect_attempts=0)


class TestErrors:
    def test_hierarchy(self):
        # Engines catch TransportError for connectivity faults; a
        # WorkerError must not be retried, but it is still transport's.
        assert issubclass(TransportTimeout, TransportError)
        assert issubclass(WorkerError, TransportError)
        assert issubclass(PeerGone, TransportError)

    def test_peer_gone_carries_the_drop_context(self):
        exc = PeerGone(wid=2, cid=17, attempts=4)
        assert (exc.wid, exc.cid, exc.attempts) == (2, 17, 4)
        assert "client 17" in str(exc)
        worker_only = PeerGone(wid=1, cid=None, attempts=3)
        assert "worker 1" in str(worker_only)


class TestWorkerSetup:
    def test_roundtrip_resolves_builder_by_reference(self):
        from repro.experiments.runner import build_federation

        setup = WorkerSetup(
            builder=build_federation,
            builder_arg="spec-stand-in",
            strategy=None,
            config=None,
        )
        back = WorkerSetup.from_bytes(setup.to_bytes())
        assert back.builder is build_federation
        assert back.builder_arg == "spec-stand-in"

    def test_foreign_bundle_refused(self):
        import pickle

        with pytest.raises(TransportError):
            WorkerSetup.from_bytes(pickle.dumps({"not": "a setup"}))


class TestRetryJitterDeterminism:
    """Reconnect jitter comes from the kernel, never wall-clock entropy."""

    def _waits(self, seed: int, cid: int) -> list[float]:
        kernel = SimKernel(seed=seed, num_clients=8)
        rng = kernel.stream("transport", cid)
        policy = RetryPolicy(
            max_attempts=4, backoff_frac=1.0, multiplier=2.0, jitter_frac=0.25
        )
        return [policy.backoff_s(k, 0.2, rng) for k in (1, 2, 3)]

    def test_same_seed_same_schedule(self):
        assert self._waits(11, 3) == self._waits(11, 3)

    def test_schedule_varies_by_client_and_seed(self):
        base = self._waits(11, 3)
        assert base != self._waits(11, 4)
        assert base != self._waits(12, 3)

    def test_jitter_stays_within_the_band(self):
        for k, wait in enumerate(self._waits(7, 0), start=1):
            nominal = 0.2 * 2.0 ** (k - 1)
            assert 0.75 * nominal <= wait <= 1.25 * nominal
