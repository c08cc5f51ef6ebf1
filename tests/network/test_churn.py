"""Tests for the availability churn model.

The lazy toggle list itself is ``_ToggleSchedule``'s and is pinned in
``tests/sim/test_faults.py``; these tests drive it through the model's
availability protocol (``is_down`` / ``next_up``) and pin what is
churn's own: its streams, its start-online draw and what it covers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ChurnModel, FaultPlan


def _churn(num_clients: int, **kwargs) -> ChurnModel:
    model = ChurnModel(**kwargs)
    model.bind(seed=0, num_clients=num_clients)
    return model


def _toggles(model: ChurnModel, cid: int) -> list[float]:
    return model._schedules[cid]._toggles


class TestChurnModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnModel(mean_on_s=0.0)
        with pytest.raises(ValueError):
            ChurnModel(mean_off_s=-1.0)
        with pytest.raises(ValueError):
            ChurnModel(start_online_prob=1.5)
        with pytest.raises(RuntimeError):
            ChurnModel().is_down(0, 0.0)  # not bound to a fleet yet

    def test_out_of_range_client(self):
        # A client the model does not cover is never down (the crash
        # model's rule); a negative time is still refused.
        model = _churn(2, start_online_prob=0.0)
        assert model.is_down(0, 0.0)
        assert not model.is_down(5, 0.0)
        assert model.next_up(5, 7.0) == 7.0
        with pytest.raises(ValueError):
            model.is_down(0, -1.0)

    def test_client_ids_scope_the_model(self):
        model = _churn(3, start_online_prob=0.0, client_ids={1})
        assert [model.is_down(c, 0.0) for c in range(3)] == [False, True, False]

    def test_deterministic_given_seed(self):
        a = _churn(3, seed=7)
        b = _churn(3, seed=7)
        for cid in range(3):
            for t in (0.0, 100.0, 1000.0, 50.0):  # out-of-order queries
                assert a.is_down(cid, t) == b.is_down(cid, t)

    def test_streams_come_from_the_models_own_seed(self):
        """Not the kernel seed ``bind`` passes: the pinned traces fix
        ``seed * 1_000_003 + cid``."""
        a, b = ChurnModel(seed=7), ChurnModel(seed=7)
        a.bind(seed=1, num_clients=2)
        b.bind(seed=2, num_clients=2)
        a.is_down(1, 5000.0), b.is_down(1, 5000.0)
        assert _toggles(a, 1) == _toggles(b, 1)
        assert _toggles(a, 1) != _toggles(_churn(2, seed=8), 1)

    def test_golden_first_toggles(self):
        """A schedule regression shows up here, not as a digest mismatch.
        Generated from ``repro.network.churn.ChurnModel`` on the commit
        before it moved onto ``_ToggleSchedule``."""
        golden = {
            (0, 0): [305.8791304397594, 307.06753019510273, 307.7483281994712,
                     340.7689005578141, 829.7510309553297, 870.1660081153636],
            (5, 3): [414.6570067883172, 496.943797617245, 570.0106662179171,
                     579.5916284631177, 768.8545843143219, 791.2933074907517],
            (11, 7): [593.1433688398627, 1056.8591767076987, 1199.4515307799952,
                      1266.1987262891366, 1861.710120400307, 1925.7628781383025],
        }
        for (seed, cid), toggles in golden.items():
            model = _churn(8, mean_on_s=300.0, mean_off_s=60.0, seed=seed)
            assert not model.is_down(cid, 0.0)  # all three start online
            model.is_down(cid, 2000.0)
            assert _toggles(model, cid)[:6] == toggles

    def test_query_order_independent(self):
        a = _churn(1, seed=3)
        late_first = a.is_down(0, 5000.0)
        b = _churn(1, seed=3)
        b.is_down(0, 1.0)  # warm up with an early query
        assert b.is_down(0, 5000.0) == late_first

    def test_state_actually_toggles(self):
        model = _churn(1, mean_on_s=10.0, mean_off_s=10.0, seed=0)
        states = {model.is_down(0, t) for t in np.linspace(0, 500, 200)}
        assert states == {True, False}

    def test_next_online_is_online(self):
        model = _churn(4, mean_on_s=20.0, mean_off_s=20.0, seed=1)
        for cid in range(4):
            for t in (0.0, 33.0, 250.0):
                resume = model.next_up(cid, t)
                assert resume >= t
                assert not model.is_down(cid, resume)

    def test_duty_cycle_follows_means(self):
        model = _churn(1, mean_on_s=90.0, mean_off_s=10.0, seed=2)
        samples = [not model.is_down(0, t) for t in np.linspace(0, 20000, 4000)]
        online_fraction = np.mean(samples)
        assert 0.8 < online_fraction < 0.98

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200), t=st.floats(0.0, 1e4))
    def test_property_next_online_idempotent(self, seed, t):
        model = _churn(2, mean_on_s=30.0, mean_off_s=30.0, seed=seed)
        resume = model.next_up(0, t)
        assert model.next_up(0, resume) == resume

    def test_trace_labels(self):
        assert (ChurnModel.cause, ChurnModel.woken) == ("churn", "online")


class TestEngineIntegration:
    def test_offline_clients_slow_the_run(self, tiny_train, tiny_test, tiny_model_fn):
        from repro.fl.async_engine import AsyncEngine
        from repro.fl.baselines import FedAsync
        from repro.fl.client import Client
        from repro.fl.config import FederationConfig, LocalTrainingConfig
        from repro.fl.server import Server

        def run(chaos):
            parts = np.array_split(np.arange(len(tiny_train)), 4)
            clients = [
                Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=80 + i)
                for i in range(4)
            ]
            server = Server(tiny_model_fn, tiny_test)
            cfg = FederationConfig(
                num_rounds=10,
                participation_rate=1.0,
                eval_every=1000,
                seed=0,
                local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
                max_sim_time_s=1e9,
                max_updates=40,
            )
            return AsyncEngine(
                server,
                clients,
                FedAsync(),
                cfg,
                device_flops=np.full(4, 1e8),
                chaos=chaos,
            ).run()

        always = run(None)
        flaky = run(FaultPlan(ChurnModel(mean_on_s=1.0, mean_off_s=1.0, seed=5)))
        assert flaky.total_uploads == always.total_uploads == 40
        assert flaky.total_sim_time > always.total_sim_time


class TestBoundarySemantics:
    """Pin the schedule's exact edge behaviour (half-open toggles)."""

    def test_start_online_prob_extremes_at_t_zero(self):
        always = _churn(8, seed=0, start_online_prob=1.0)
        never = _churn(8, seed=0, start_online_prob=0.0)
        assert not any(always.is_down(c, 0.0) for c in range(8))
        assert all(never.is_down(c, 0.0) for c in range(8))

    def test_state_flips_exactly_at_toggle_time(self):
        model = _churn(1, mean_on_s=5.0, mean_off_s=5.0, seed=4, start_online_prob=1.0)
        model.is_down(0, 1000.0)  # force schedule generation
        first = _toggles(model, 0)[0]
        # Half-open periods: up on [0, first), down starting at first.
        assert not model.is_down(0, np.nextafter(first, 0.0))
        assert model.is_down(0, first)

    def test_next_online_lands_on_exact_toggle(self):
        model = _churn(1, mean_on_s=5.0, mean_off_s=5.0, seed=9, start_online_prob=0.0)
        model.is_down(0, 0.0)
        first = _toggles(model, 0)[0]
        assert model.next_up(0, 0.0) == first
        assert not model.is_down(0, first)

    def test_extend_is_lazy_but_stable(self):
        # Extending the schedule in two hops yields the same toggles as
        # one far query: _extend must never re-draw existing periods.
        a = _churn(1, mean_on_s=10.0, mean_off_s=10.0, seed=2)
        b = _churn(1, mean_on_s=10.0, mean_off_s=10.0, seed=2)
        a.is_down(0, 2000.0)
        for t in (50.0, 400.0, 2000.0):
            b.is_down(0, t)
        assert _toggles(a, 0) == _toggles(b, 0)
