"""Tests for client data partitioners, including hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    label_skew_partition,
    partition_dataset,
    partition_stats,
    quantity_skew_partition,
    shard_partition,
)


def check_disjoint_and_complete(parts, n):
    """Partition invariant: index sets are disjoint and cover [0, n)."""
    union = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    assert len(union) == len(set(union.tolist()))  # disjoint
    assert set(union.tolist()) == set(range(n))  # complete


class TestIid:
    def test_partition_invariant(self, rng):
        parts = iid_partition(100, 7, rng)
        check_disjoint_and_complete(parts, 100)

    def test_even_sizes(self, rng):
        parts = iid_partition(100, 10, rng)
        assert all(len(p) == 10 for p in parts)

    def test_too_few_samples(self, rng):
        with pytest.raises(ValueError):
            iid_partition(3, 5, rng)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(10, 200), k=st.integers(1, 10))
    def test_property_invariant(self, n, k):
        if n < k:
            return
        parts = iid_partition(n, k, np.random.default_rng(0))
        check_disjoint_and_complete(parts, n)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestShard:
    def test_partition_invariant(self, rng):
        labels = np.arange(100) % 10
        parts = shard_partition(labels, 10, 2, rng)
        check_disjoint_and_complete(parts, 100)

    def test_limits_classes_per_client(self, rng):
        labels = np.repeat(np.arange(10), 20)  # 10 classes, sorted
        parts = shard_partition(labels, 10, 2, rng)
        for part in parts:
            # Two shards of 20 from the sorted list touch at most 3 classes
            # (usually 2), never all 10.
            assert len(np.unique(labels[part])) <= 4

    def test_too_many_shards(self, rng):
        with pytest.raises(ValueError):
            shard_partition(np.zeros(5, dtype=int), 10, 2, rng)

    @settings(max_examples=25, deadline=None)
    @given(clients=st.integers(2, 8), shards=st.integers(1, 3))
    def test_property_invariant(self, clients, shards):
        n = clients * shards * 10
        labels = np.arange(n) % 5
        parts = shard_partition(labels, clients, shards, np.random.default_rng(1))
        check_disjoint_and_complete(parts, n)


class TestDirichlet:
    def test_partition_invariant(self, rng):
        labels = np.arange(200) % 10
        parts = dirichlet_partition(labels, 8, alpha=0.5, rng=rng)
        check_disjoint_and_complete(parts, 200)

    def test_low_alpha_is_skewed(self):
        labels = np.arange(1000) % 10
        skewed = dirichlet_partition(labels, 10, alpha=0.1, rng=np.random.default_rng(0))
        uniform = dirichlet_partition(labels, 10, alpha=100.0, rng=np.random.default_rng(0))

        def mean_entropy(parts):
            es = []
            for p in parts:
                counts = np.bincount(labels[p], minlength=10)
                probs = counts[counts > 0] / counts.sum()
                es.append(-(probs * np.log(probs)).sum())
            return np.mean(es)

        assert mean_entropy(skewed) < mean_entropy(uniform) - 0.3

    def test_min_samples_respected(self):
        labels = np.arange(100) % 5
        parts = dirichlet_partition(
            labels, 5, alpha=0.5, rng=np.random.default_rng(0), min_samples=3
        )
        assert min(len(p) for p in parts) >= 3

    def test_bad_alpha(self, rng):
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(10, dtype=int), 2, alpha=0.0, rng=rng)


class TestLabelSkew:
    def test_partition_invariant(self, rng):
        labels = np.arange(120) % 6
        parts = label_skew_partition(labels, 6, classes_per_client=2, rng=rng)
        check_disjoint_and_complete(parts, 120)

    def test_classes_per_client_bound(self, rng):
        labels = np.arange(200) % 10
        parts = label_skew_partition(labels, 5, classes_per_client=2, rng=rng)
        for part in parts:
            assert len(np.unique(labels[part])) <= 2

    def test_bad_classes_per_client(self, rng):
        with pytest.raises(ValueError):
            label_skew_partition(np.zeros(10, dtype=int), 2, classes_per_client=0, rng=rng)


class TestQuantitySkew:
    def test_partition_invariant(self, rng):
        parts = quantity_skew_partition(100, 5, rng, concentration=0.5)
        union = np.concatenate(parts)
        assert len(union) == 100
        assert len(set(union.tolist())) == 100

    def test_low_concentration_is_skewed(self):
        rng = np.random.default_rng(0)
        skewed = quantity_skew_partition(1000, 10, rng, concentration=0.2)
        rng = np.random.default_rng(0)
        even = quantity_skew_partition(1000, 10, rng, concentration=100.0)
        spread_skewed = max(len(p) for p in skewed) - min(len(p) for p in skewed)
        spread_even = max(len(p) for p in even) - min(len(p) for p in even)
        assert spread_skewed > spread_even

    def test_min_samples(self, rng):
        parts = quantity_skew_partition(100, 4, rng, concentration=0.3, min_samples=5)
        assert min(len(p) for p in parts) >= 5

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            quantity_skew_partition(100, 4, rng, concentration=0.0)
        with pytest.raises(ValueError):
            quantity_skew_partition(10, 4, rng, min_samples=5)

    def test_via_partition_dataset(self, rng):
        ds = Dataset(np.zeros((60, 1, 2, 2)), np.arange(60) % 3, 3)
        parts = partition_dataset(ds, 4, "quantity_skew", rng)
        assert sum(len(p) for p in parts) == 60


class TestPartitionDataset:
    @pytest.fixture
    def dataset(self):
        rng = np.random.default_rng(0)
        return Dataset(rng.normal(size=(60, 1, 2, 2)), np.arange(60) % 6, 6)

    @pytest.mark.parametrize("scheme", ["iid", "shard", "dirichlet", "label_skew"])
    def test_all_schemes_run(self, dataset, scheme, rng):
        parts = partition_dataset(dataset, 6, scheme, rng)
        assert len(parts) == 6
        assert sum(len(p) for p in parts) == 60

    def test_unknown_scheme(self, dataset, rng):
        with pytest.raises(ValueError, match="unknown partition scheme"):
            partition_dataset(dataset, 4, "zipf", rng)

    def test_stats(self, dataset, rng):
        parts = partition_dataset(dataset, 6, "iid", rng)
        stats = partition_stats(parts)
        assert stats.num_clients == 6
        assert stats.sizes.sum() == 60
        assert stats.class_counts.shape == (6, 6)
        assert stats.mean_entropy > 0

    def test_stats_iid_entropy_exceeds_shard(self, dataset, rng):
        iid = partition_stats(partition_dataset(dataset, 6, "iid", np.random.default_rng(0)))
        shard = partition_stats(
            partition_dataset(dataset, 6, "shard", np.random.default_rng(0))
        )
        assert iid.mean_entropy > shard.mean_entropy

    def test_stats_empty_raises(self):
        with pytest.raises(ValueError):
            partition_stats([])


class TestPartitionPlan:
    """Index-only plans: the O(population)-safe partition representation."""

    @pytest.fixture
    def dataset(self):
        rng = np.random.default_rng(11)
        return Dataset(rng.normal(size=(60, 1, 2, 2)), np.arange(60) % 6, 6)

    def test_plan_matches_eager_partition(self, dataset):
        from repro.data.partition import partition_plan

        plan = partition_plan(dataset, 6, "shard", np.random.default_rng(3))
        eager = partition_dataset(dataset, 6, "shard", np.random.default_rng(3))
        assert plan.num_clients == 6
        assert len(plan) == 6
        for cid in range(6):
            shard = plan.shard(cid)
            assert np.array_equal(shard.x, eager[cid].x)
            assert np.array_equal(shard.y, eager[cid].y)

    def test_plan_sizes_without_materializing(self, dataset):
        from repro.data.partition import partition_plan

        plan = partition_plan(dataset, 5, "iid", np.random.default_rng(0))
        sizes = plan.sizes()
        assert list(sizes) == [len(plan.indices[i]) for i in range(5)]
        assert sizes.sum() == 60

    def test_partition_indices_cover_dataset(self, dataset):
        from repro.data.partition import partition_indices

        parts = partition_indices(dataset, 6, "dirichlet", np.random.default_rng(2))
        check_disjoint_and_complete(parts, 60)
