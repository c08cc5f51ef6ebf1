"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import Dataset


def make_ds(n=10, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        x=rng.normal(size=(n, 1, 2, 2)),
        y=rng.integers(0, classes, n).astype(np.int64),
        num_classes=classes,
    )


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)

    def test_negative_label(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, -1]), 2)

    def test_2d_labels_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.zeros((2, 1), dtype=np.int64), 2)


class TestBasics:
    def test_len_and_shape(self):
        ds = make_ds(7)
        assert len(ds) == 7
        assert ds.input_shape == (1, 2, 2)

    def test_class_counts(self):
        ds = Dataset(np.zeros((4, 1)), np.array([0, 0, 2, 2]), 3)
        np.testing.assert_array_equal(ds.class_counts(), [2, 0, 2])


class TestSubset:
    def test_selects_and_copies(self):
        ds = make_ds(10)
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.y, ds.y[[1, 3, 5]])
        sub.x[0] = 99.0
        assert ds.x[1, 0, 0, 0] != 99.0  # no aliasing

    @pytest.mark.parametrize(
        "indices",
        [np.arange(10), np.array([4]), np.array([2, 2, 7]), [0, 9], np.arange(3, 8)],
    )
    def test_never_shares_memory_with_parent(self, indices):
        # Integer-array indexing allocates by itself; subset must stay a
        # copy for every index shape without a second .copy().
        ds = make_ds(10)
        sub = ds.subset(indices)
        assert not np.shares_memory(sub.x, ds.x)
        assert not np.shares_memory(sub.y, ds.y)
        assert sub.x.flags.owndata and sub.y.flags.owndata
        np.testing.assert_array_equal(sub.x, ds.x[np.asarray(indices)])

    def test_subset_of_read_only_parent_is_writable(self):
        ds = make_ds(6)
        ds.x.setflags(write=False)
        ds.y.setflags(write=False)
        sub = ds.subset(np.array([0, 5]))
        sub.x[:] = 0.0
        sub.y[:] = 0
        assert ds.x.any()


class TestBatches:
    def test_covers_all_samples(self):
        ds = make_ds(10)
        total = sum(xb.shape[0] for xb, _ in ds.batches(3))
        assert total == 10

    def test_last_batch_short(self):
        ds = make_ds(10)
        sizes = [xb.shape[0] for xb, _ in ds.batches(4)]
        assert sizes == [4, 4, 2]

    def test_shuffled_with_rng(self):
        ds = make_ds(50)
        batches_a = [yb for _, yb in ds.batches(50, np.random.default_rng(1))]
        batches_b = [yb for _, yb in ds.batches(50, np.random.default_rng(2))]
        assert not np.array_equal(batches_a[0], batches_b[0])

    def test_deterministic_given_seed(self):
        ds = make_ds(20)
        a = [yb for _, yb in ds.batches(5, np.random.default_rng(3))]
        b = [yb for _, yb in ds.batches(5, np.random.default_rng(3))]
        for ya, yb in zip(a, b):
            np.testing.assert_array_equal(ya, yb)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(make_ds().batches(0))


class TestSplit:
    def test_sizes(self, rng):
        first, second = make_ds(20).split(0.75, rng)
        assert len(first) == 15
        assert len(second) == 5

    def test_disjoint_and_exhaustive(self, rng):
        ds = make_ds(20)
        ds = Dataset(ds.x, np.arange(20) % 3, 3)  # distinguishable labels
        first, second = ds.split(0.5, rng)
        assert len(first) + len(second) == 20

    def test_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            make_ds().split(1.0, rng)
