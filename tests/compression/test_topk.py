"""Tests for top-k sparsification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import topk
from repro.compression.topk import TopKCompressor, topk_indices


class TestTopKIndices:
    def test_selects_largest_magnitudes(self):
        v = np.array([0.1, -5.0, 2.0, 0.0, 3.0])
        idx = topk_indices(v, 2)
        assert set(idx.tolist()) == {1, 4}

    def test_k_exceeds_size_returns_all(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(topk_indices(v, 10), [0, 1])

    def test_deterministic_on_ties(self):
        v = np.ones(6)
        a = topk_indices(v, 3)
        b = topk_indices(v.copy(), 3)
        np.testing.assert_array_equal(a, b)

    def test_deterministic_on_boundary_ties(self):
        # A tie exactly at the k-th magnitude: the selected support set
        # must be identical across repeated calls on equal inputs, and
        # must always contain the strictly-larger entries.
        v = np.array([2.0, -1.0, 1.0, -1.0, 1.0, 3.0, -1.0])
        runs = [topk_indices(v.copy(), 4) for _ in range(5)]
        for r in runs[1:]:
            np.testing.assert_array_equal(runs[0], r)
        assert {0, 5} <= set(runs[0].tolist())
        assert np.all(np.diff(runs[0]) > 0)  # sorted, unique

    def test_deterministic_all_tied(self):
        v = np.full(50, -0.5)
        runs = [topk_indices(v.copy(), 7) for _ in range(5)]
        for r in runs[1:]:
            np.testing.assert_array_equal(runs[0], r)
        assert runs[0].size == 7

    def test_bad_k(self):
        with pytest.raises(ValueError):
            topk_indices(np.ones(3), 0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 50),
        seed=st.integers(0, 1000),
    )
    def test_property_optimal_selection(self, n, k, seed):
        """Every kept entry is >= every dropped entry in magnitude."""
        v = np.random.default_rng(seed).normal(size=n)
        idx = topk_indices(v, k)
        kept = np.abs(v[idx])
        mask = np.ones(n, dtype=bool)
        mask[idx] = False
        dropped = np.abs(v[mask])
        if dropped.size and kept.size:
            assert kept.min() >= dropped.max() - 1e-12
        assert idx.size == min(k, n)


def _reference_topk(values: np.ndarray, k: int) -> np.ndarray:
    """The argpartition selection ``topk_indices`` always made."""
    if k >= values.size:
        return np.arange(values.size, dtype=np.intp)
    return np.sort(np.argpartition(-np.abs(values), k - 1)[:k])


# A small pool forces ties at the k-th magnitude, signed zeros, and
# non-finite values; the floats keep some vectors tie-free.
_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan]


class TestThresholdPath:
    """The partition + ``flatnonzero`` path selects what argpartition did."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.sampled_from(_POOL), st.floats(-3.0, 3.0)),
            min_size=1, max_size=40,
        ),
        which=st.sampled_from(["1", "d-1", "d", ">d"]),
        scratch=st.booleans(),
    )
    def test_equals_argpartition_reference(self, values, which, scratch):
        v = np.array(values, dtype=np.float64)
        d = v.size
        k = {"1": 1, "d-1": d - 1, "d": d, ">d": d + 3}[which]
        if k <= 0:
            return
        want = _reference_topk(v, k)
        got = topk_indices(v, k, np.abs(v) if scratch else None)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_multi_block_vector_with_boundary_ties(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=100_003)
        v[rng.choice(v.size, 4000, replace=False)] = 0.0
        for k in (1, 500, 60_000, 96_003, 96_010, v.size - 1):
            want = _reference_topk(v, k)
            got = topk_indices(v, k, np.abs(v))
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_distinct_magnitudes_take_the_threshold_path(self):
        v = np.random.default_rng(5).normal(size=70_000)
        mags = np.abs(v)
        mags.partition(v.size - 700)
        idx = topk._indices_at_least(v, mags[v.size - 700], 700, mags)
        assert idx is not None
        assert np.array_equal(idx, _reference_topk(v, 700))

    def test_ties_and_nan_take_the_argpartition_path(self):
        for v in ([3.0, 1.0, -1.0, 0.0], [3.0, np.nan, 1.0, 0.0]):
            v = np.array(v)
            mags = np.abs(v)
            mags.partition(2)
            assert topk._indices_at_least(v, mags[2], 2, mags) is None


class TestTopKCompressor:
    def test_keeps_expected_count(self, rng):
        comp = TopKCompressor(100, ratio=10.0)
        payload = comp.compress(rng.normal(size=100))
        assert payload.data["indices"].size == 10

    def test_roundtrip_preserves_support(self, rng):
        comp = TopKCompressor(50, ratio=5.0)
        grad = rng.normal(size=50)
        restored, payload = comp.roundtrip(grad)
        idx = payload.data["indices"].astype(int)
        np.testing.assert_allclose(restored[idx], grad[idx], atol=1e-6)
        mask = np.ones(50, dtype=bool)
        mask[idx] = False
        assert np.all(restored[mask] == 0.0)

    def test_min_one_coordinate(self, rng):
        comp = TopKCompressor(10, ratio=1000.0)
        payload = comp.compress(rng.normal(size=10))
        assert payload.data["indices"].size == 1

    def test_wire_size_uses_best_encoding(self, rng):
        # nnz=100 of dim=1000: bitmap (400 + 125) beats COO (800).
        comp = TopKCompressor(1000, ratio=10.0)
        payload = comp.compress(rng.normal(size=1000))
        assert payload.num_bytes == 525
        assert payload.compression_ratio > 7.0

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            TopKCompressor(10, ratio=0.5)

    def test_no_error_feedback(self, rng):
        """Plain top-k is memoryless: same input twice -> same output."""
        comp = TopKCompressor(30, ratio=3.0)
        grad = rng.normal(size=30)
        a, _ = comp.roundtrip(grad)
        b, _ = comp.roundtrip(grad)
        np.testing.assert_array_equal(a, b)

    def test_plain_topk_starves_forever(self):
        """Stateless top-k never sends a persistently small coordinate."""
        comp = TopKCompressor(10, ratio=10.0)
        grad = np.zeros(10)
        grad[0] = 5.0
        grad[7] = 0.05
        for _ in range(50):
            assert comp.decompress(comp.compress(grad))[7] == 0.0
