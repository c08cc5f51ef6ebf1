"""Virtual-population smoke: rebuild-from-seed memo and O(cohort) guards.

The base shard of a :class:`SyntheticShardFactory` is memoised per
process.  These tests pin what that must not change — every client
rebuild bit for bit, mutation isolation between clients, the factory's
pickle — and count the work a smoke run does, so an O(population) or
O(materialisations) habit cannot creep back in unnoticed (counts, not
timings: deterministic on any machine).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data.synthetic import make_image_classification
from repro.experiments import scalability
from repro.experiments.scalability import SyntheticShardFactory, run_population_smoke
from repro.fl.client import Client
from tests.core.test_selection import _CountingRng


@pytest.fixture(autouse=True)
def cold_memo():
    scalability._base_shard.cache_clear()
    yield
    scalability._base_shard.cache_clear()


def _pre_change_client(factory: SyntheticShardFactory, cid: int) -> Client:
    """``SyntheticShardFactory.__call__`` as it was before the memo."""
    shard = make_image_classification(
        n_train=factory.samples_per_client,
        n_test=factory.num_classes,
        num_classes=factory.num_classes,
        image_shape=factory.image_shape,
        noise_std=0.4,
        seed=factory.seed,
    )[0]
    rng = np.random.default_rng(factory.seed * 1_000_003 + cid)
    order = rng.permutation(len(shard))
    return Client(
        cid,
        shard.subset(np.sort(order[: max(2, len(shard) // 2)])),
        factory.model_fn,
        seed=factory.seed + 17 * cid + 1,
    )


def _same_client(a: Client, b: Client) -> bool:
    return (
        a.client_id == b.client_id
        and a.dataset.x.dtype == b.dataset.x.dtype
        and np.array_equal(a.dataset.x, b.dataset.x)
        and np.array_equal(a.dataset.y, b.dataset.y)
        and a.dataset.name == b.dataset.name
        and np.array_equal(a.replica.model.get_flat_params(), b.replica.model.get_flat_params())
        and a.extract_state().keys() == b.extract_state().keys()
    )


class TestBaseShardMemo:
    @pytest.mark.parametrize("seed, samples", [(0, 8), (5, 8), (3, 12)])
    def test_cold_warm_and_pre_change_rebuilds_are_bit_identical(self, seed, samples):
        factory = SyntheticShardFactory(
            num_clients=100_000, seed=seed, samples_per_client=samples
        )
        for cid in (0, 1, 17, 4242, 99_999):
            scalability._base_shard.cache_clear()
            cold = factory(cid)
            assert scalability._base_shard.cache_info().misses == 1
            warm = factory(cid)
            assert scalability._base_shard.cache_info().hits == 1
            assert _same_client(cold, warm)
            assert _same_client(cold, _pre_change_client(factory, cid))

    def test_memo_is_keyed_on_every_shard_argument(self):
        base = SyntheticShardFactory(num_clients=10)
        variants = [
            SyntheticShardFactory(num_clients=10, seed=1),
            SyntheticShardFactory(num_clients=10, samples_per_client=16),
            SyntheticShardFactory(num_clients=10, num_classes=3),
            SyntheticShardFactory(num_clients=10, image_shape=(1, 5, 5)),
        ]
        base(0)  # warm the default key first: a wrong key would serve it
        for factory in variants:
            assert _same_client(factory(3), _pre_change_client(factory, 3))
        # Fields the shard does not depend on share one entry.
        SyntheticShardFactory(num_clients=99, hidden=(4,), model_seed=1)(0)
        assert scalability._base_shard.cache_info().misses == 1 + len(variants)

    def test_mutating_one_client_reaches_no_other_client_or_rebuild(self):
        factory = SyntheticShardFactory(num_clients=50, seed=2)
        first, second = factory(7), factory(8)
        pristine_first = first.dataset.x.copy()
        pristine_second = second.dataset.x.copy()
        first.dataset.x[:] = 1e9
        first.dataset.y[:] = 0
        assert np.array_equal(second.dataset.x, pristine_second)
        assert np.array_equal(factory(8).dataset.x, pristine_second)
        rebuilt = factory(7)
        assert np.array_equal(rebuilt.dataset.x, pristine_first)
        assert not np.shares_memory(rebuilt.dataset.x, first.dataset.x)

    def test_template_is_frozen_and_clients_get_writable_copies(self):
        factory = SyntheticShardFactory(num_clients=4)
        client = factory(1)
        template = scalability._base_shard(
            factory.samples_per_client, factory.num_classes,
            factory.image_shape, factory.seed,
        )
        assert not template.x.flags.writeable and not template.y.flags.writeable
        assert client.dataset.x.flags.writeable and client.dataset.y.flags.writeable
        assert not np.shares_memory(client.dataset.x, template.x)

    def test_factory_pickle_is_unchanged_by_warming(self):
        factory = SyntheticShardFactory(num_clients=1000, seed=4)
        before = pickle.dumps(factory)
        factory(0), factory(999)
        assert pickle.dumps(factory) == before
        clone = pickle.loads(before)
        assert clone == factory
        assert _same_client(clone(5), factory(5))

    def test_list_image_shape_still_works(self):
        # lru_cache needs hashable arguments; the factory normalises.
        factory = SyntheticShardFactory(num_clients=4, image_shape=[1, 6, 6])
        reference = SyntheticShardFactory(num_clients=4)
        assert np.array_equal(factory(2).dataset.x, reference(2).dataset.x)


class TestSmokeWorkCounts:
    def test_generation_calls_do_not_scale_with_materialisations(self, monkeypatch):
        calls = []
        real = scalability.make_image_classification

        def counted(*args, **kwargs):
            calls.append(kwargs.get("n_train"))
            return real(*args, **kwargs)

        monkeypatch.setattr(scalability, "make_image_classification", counted)
        out = run_population_smoke(num_clients=20_000, rounds=3, cohort=20, seed=0)

        # One test set + one shard template, however many clients were
        # built: 60 cohort materialisations + 16 spot-check rebuilds.
        assert len(calls) <= 2
        assert sorted(calls) == [1, 8]
        # The lifecycle itself is what it was before the memo: the work
        # per materialisation shrank, not the number of materialisations.
        assert out["materializations"] == 60
        assert out["evictions"] == 20
        assert out["peak_live"] == 60
        assert out["total_uploads"] == 60
        assert out["final_accuracy"] == 0.525
        assert out["sampled_rebuilds_verified"] == 8

    def test_second_smoke_in_one_process_reuses_the_template(self, monkeypatch):
        run_population_smoke(num_clients=500, rounds=1, cohort=5, seed=0)
        calls = []
        real = scalability.make_image_classification
        monkeypatch.setattr(
            scalability, "make_image_classification",
            lambda *a, **k: calls.append(k.get("n_train")) or real(*a, **k),
        )
        run_population_smoke(num_clients=500, rounds=1, cohort=5, seed=0)
        assert calls == [1]  # the test set only

    def test_spot_check_draws_are_skip_ahead(self, monkeypatch):
        # The determinism spot-check samples the id stream through
        # reservoir_sample (never a candidate list) in O(k log(n/k))
        # generator calls rather than one per client.
        seen = {}
        real = scalability.reservoir_sample

        def spy(ids, k, rng):
            assert isinstance(ids, range)
            proxy = _CountingRng(rng)
            seen["sample"] = real(ids, k, proxy)
            seen["calls"] = proxy.calls
            return seen["sample"]

        monkeypatch.setattr(scalability, "reservoir_sample", spy)
        out = run_population_smoke(num_clients=20_000, rounds=1, cohort=10, seed=3)
        assert out["sampled_rebuilds_verified"] == len(seen["sample"]) == 8
        assert seen["calls"] < 500  # Algorithm R: 19 992


class TestSampleCheck:
    def test_zero_skips_the_spot_check(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("reservoir_sample must not run")

        monkeypatch.setattr(scalability, "reservoir_sample", boom)
        out = run_population_smoke(
            num_clients=300, rounds=1, cohort=5, seed=1, sample_check=0
        )
        assert out["sampled_rebuilds_verified"] == 0
        assert out["total_uploads"] == 5

    def test_sample_check_is_capped_by_population(self):
        out = run_population_smoke(
            num_clients=6, rounds=1, cohort=2, seed=1, sample_check=50
        )
        assert out["sampled_rebuilds_verified"] == 6

    def test_run_outcome_does_not_depend_on_the_spot_check(self):
        kwargs = dict(num_clients=400, rounds=2, cohort=5, seed=2)
        with_check = run_population_smoke(sample_check=8, **kwargs)
        without = run_population_smoke(sample_check=0, **kwargs)
        with_check.pop("sampled_rebuilds_verified")
        without.pop("sampled_rebuilds_verified")
        assert with_check == without
