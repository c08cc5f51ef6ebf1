"""Tests for strategy base classes and weighted averaging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.client import ClientUpdate
from repro.fl.strategy import RoundContext, SyncStrategy, WeightedFold, weighted_average


def update(cid, delta, n):
    return ClientUpdate(
        client_id=cid,
        round_index=0,
        num_samples=n,
        delta=np.asarray(delta, dtype=np.float64),
        train_loss=0.0,
        flops=0,
    )


class TestWeightedAverage:
    def test_equal_weights(self):
        avg = weighted_average([update(0, [2.0, 0.0], 5), update(1, [0.0, 2.0], 5)])
        np.testing.assert_allclose(avg, [1.0, 1.0])

    def test_sample_weighting(self):
        avg = weighted_average([update(0, [4.0], 3), update(1, [0.0], 1)])
        np.testing.assert_allclose(avg, [3.0])

    def test_single_update(self):
        np.testing.assert_allclose(weighted_average([update(0, [1.0, 2.0], 7)]), [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            weighted_average([])

    def test_zero_samples_raises(self):
        with pytest.raises(ValueError):
            weighted_average([update(0, [1.0], 0)])

    @pytest.mark.parametrize("dim", (1, 7, 32768, 32769, 100_003))
    def test_blocked_sum_is_bit_equal_to_the_plain_loop(self, dim):
        # Eq. 2 written out whole-array, block edges included: every
        # n_i * x_i summed in order, one division at the end.
        rng = np.random.default_rng(dim)
        updates = [
            update(i, rng.standard_normal(dim) * 10.0 ** rng.integers(-8, 8), int(n))
            for i, n in enumerate(rng.integers(1, 500, size=7))
        ]
        total = np.zeros(dim)
        for u in updates:
            total += u.num_samples * u.delta
        expected = total / sum(u.num_samples for u in updates)
        got = weighted_average(updates)
        assert got.tobytes() == expected.tobytes()
        assert not any(np.shares_memory(got, u.delta) for u in updates)

    def test_mismatched_delta_shapes_rejected(self):
        with pytest.raises(ValueError):
            weighted_average([update(0, [1.0, 2.0], 1), update(1, [1.0, 2.0, 3.0], 1)])


class TestSyncStrategySelection:
    def _context(self, num_clients, tiny_model_fn, tiny_test):
        from repro.fl.server import Server

        return RoundContext(
            round_index=0,
            sim_time_s=0.0,
            server=Server(tiny_model_fn, tiny_test),
            clients=[None] * num_clients,  # only the count is used
        )

    def test_selects_rate_fraction(self, tiny_model_fn, tiny_test):
        strat = SyncStrategy(participation_rate=0.5)
        ctx = self._context(10, tiny_model_fn, tiny_test)
        picked = strat.select(list(range(10)), np.random.default_rng(0), ctx)
        assert len(picked) == 5
        assert picked == sorted(picked)

    def test_capped_by_availability(self, tiny_model_fn, tiny_test):
        strat = SyncStrategy(participation_rate=0.5)
        ctx = self._context(10, tiny_model_fn, tiny_test)
        picked = strat.select([1, 2], np.random.default_rng(0), ctx)
        assert set(picked) <= {1, 2}

    def test_empty_available(self, tiny_model_fn, tiny_test):
        strat = SyncStrategy()
        ctx = self._context(10, tiny_model_fn, tiny_test)
        assert strat.select([], np.random.default_rng(0), ctx) == []

    def test_full_participation(self, tiny_model_fn, tiny_test):
        strat = SyncStrategy(participation_rate=1.0)
        ctx = self._context(6, tiny_model_fn, tiny_test)
        picked = strat.select(list(range(6)), np.random.default_rng(0), ctx)
        assert picked == list(range(6))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            SyncStrategy(participation_rate=0.0)

    def test_default_upload_is_dense(self, tiny_model_fn, tiny_test):
        strat = SyncStrategy()
        ctx = self._context(2, tiny_model_fn, tiny_test)
        u = update(0, np.ones(10), 5)
        packet = strat.process_upload(None, u, ctx)
        np.testing.assert_array_equal(packet.delta, u.delta)
        assert packet.nbytes == 40

    def test_default_aggregate_applies_average(self, tiny_model_fn, tiny_test):
        from repro.fl.server import Server

        server = Server(tiny_model_fn, tiny_test)
        strat = SyncStrategy()
        ctx = RoundContext(0, 0.0, server, [])
        d = server.dim
        before = server.params.copy()
        strat.aggregate(server, WeightedFold.of([update(0, np.ones(d), 5)]), ctx)
        np.testing.assert_allclose(server.params, before + 1.0)

    def test_aggregate_no_updates_is_noop(self, tiny_model_fn, tiny_test):
        from repro.fl.server import Server

        server = Server(tiny_model_fn, tiny_test)
        before = server.params.copy()
        SyncStrategy().aggregate(server, WeightedFold(), RoundContext(0, 0.0, server, []))
        np.testing.assert_array_equal(server.params, before)
        assert server.version == 0


class _Registry:
    """The slice of the population surface ``select`` consults."""

    def __init__(self, n):
        self._ids = np.arange(n, dtype=np.int64)
        self._ids.setflags(write=False)
        self.array_reads = 0

    def __len__(self):
        return self._ids.size

    def all_ids_array(self):
        self.array_reads += 1
        return self._ids


def _select(clients, available, rate, seed):
    ctx = RoundContext(round_index=0, sim_time_s=0.0, server=None, clients=clients)
    rng = np.random.default_rng(seed)
    picked = SyncStrategy(participation_rate=rate).select(available, rng, ctx)
    return picked, rng.bit_generator.state


class TestArrayNativeSelection:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 400),
        rate=st.floats(0.001, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_full_registry_matches_list_path(self, n, rate, seed):
        # A list has no all_ids_array: that is the pre-change list path.
        want, want_state = _select([None] * n, list(range(n)), rate, seed)
        registry = _Registry(n)
        got, got_state = _select(registry, list(range(n)), rate, seed)
        assert got == want
        assert got_state == want_state  # same draws: later rounds agree too
        assert registry.array_reads == 1
        assert all(type(cid) is int for cid in got)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 400),
        rate=st.floats(0.001, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_partial_availability_takes_list_path(self, n, rate, seed, data):
        missing = data.draw(st.integers(0, n - 1))
        available = [cid for cid in range(n) if cid != missing]
        want, _ = _select([None] * n, available, rate, seed)
        registry = _Registry(n)
        got, _ = _select(registry, available, rate, seed)
        assert got == want
        assert missing not in got
        assert registry.array_reads == 0

    def test_real_populations_expose_the_cached_array(self):
        from repro.experiments.scalability import SyntheticShardFactory
        from repro.fl.population import ClientPopulation, RetentionPolicy

        pop = ClientPopulation(
            num_clients=50,
            client_fn=SyntheticShardFactory(num_clients=50),
            policy=RetentionPolicy(mode="regenerate", max_live=4),
        )
        want, _ = _select([None] * 50, list(range(50)), 0.2, 9)
        got, _ = _select(pop, pop.all_ids(), 0.2, 9)
        assert got == want
        assert pop.stats.materializations == 0  # selection touches no client
        ids = pop.all_ids_array()
        assert ids is pop.all_ids_array() and not ids.flags.writeable
