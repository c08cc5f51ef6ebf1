"""Tests for utility scores (Eq. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import (
    SIMILARITY_METRICS,
    UtilityScorer,
    cosine_similarity,
    euclidean_similarity,
    l2_similarity,
)


class TestCosine:
    def test_identical_vectors(self, rng):
        v = rng.normal(size=20)
        assert abs(cosine_similarity(v, v) - 1.0) < 1e-12

    def test_opposite_vectors(self, rng):
        v = rng.normal(size=20)
        assert abs(cosine_similarity(v, -v) + 1.0) < 1e-12

    def test_orthogonal(self):
        assert abs(cosine_similarity([1.0, 0.0], [0.0, 1.0])) < 1e-12

    def test_scale_invariant(self, rng):
        a, b = rng.normal(size=10), rng.normal(size=10)
        assert abs(cosine_similarity(a, b) - cosine_similarity(5 * a, 0.1 * b)) < 1e-12

    def test_zero_vector_is_zero(self):
        assert cosine_similarity(np.zeros(5), np.ones(5)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 500), dim=st.integers(1, 50))
    def test_property_bounded(self, seed, dim):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=dim), rng.normal(size=dim)
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


class TestDistanceMetrics:
    def test_l2_identical_is_one(self, rng):
        v = rng.normal(size=10)
        assert abs(l2_similarity(v, v) - 1.0) < 1e-9

    def test_l2_decreases_with_distance(self, rng):
        b = rng.normal(size=10)
        near = l2_similarity(b + 0.01, b)
        far = l2_similarity(b + 10.0, b)
        assert near > far

    def test_euclidean_identical_is_one(self, rng):
        v = rng.normal(size=10)
        assert abs(euclidean_similarity(v, v) - 1.0) < 1e-12

    def test_all_metrics_in_unit_interval(self, rng):
        a, b = rng.normal(size=10), rng.normal(size=10)
        assert 0.0 < l2_similarity(a, b) <= 1.0
        assert 0.0 < euclidean_similarity(a, b) <= 1.0

    def test_registry(self):
        assert set(SIMILARITY_METRICS) == {"cosine", "l2", "euclidean"}


class TestUtilityScorer:
    def test_validation(self):
        with pytest.raises(ValueError):
            UtilityScorer(metric="manhattan")
        with pytest.raises(ValueError):
            UtilityScorer(sim_weight=-1.0)
        with pytest.raises(ValueError):
            UtilityScorer(sim_weight=0.0, bw_weight=0.0)
        with pytest.raises(ValueError):
            UtilityScorer(bw_reference_mbps=0.0)

    def test_similarity_normalised_cosine(self, rng):
        scorer = UtilityScorer()
        v = rng.normal(size=10)
        assert abs(scorer.similarity(v, v) - 1.0) < 1e-12
        assert abs(scorer.similarity(v, -v)) < 1e-12

    def test_default_similarity_for_unknown(self):
        scorer = UtilityScorer(default_similarity=0.8)
        assert scorer.similarity(None, np.ones(4)) == 0.8
        assert scorer.similarity(np.ones(4), None) == 0.8

    def test_bandwidth_saturates(self):
        scorer = UtilityScorer(bw_reference_mbps=10.0)
        assert scorer.bandwidth_term(100.0, 100.0) == 1.0

    def test_bandwidth_harmonic_mean_penalises_dead_link(self):
        scorer = UtilityScorer(bw_reference_mbps=10.0)
        balanced = scorer.bandwidth_term(5.0, 5.0)
        lopsided = scorer.bandwidth_term(100.0, 1.0)
        assert balanced > lopsided

    def test_zero_bandwidth_is_zero(self):
        assert UtilityScorer().bandwidth_term(0.0, 100.0) == 0.0

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            UtilityScorer().bandwidth_term(-1.0, 1.0)

    def test_score_bounds(self, rng):
        scorer = UtilityScorer()
        for _ in range(20):
            s = scorer.score(
                float(rng.uniform(0, 50)),
                float(rng.uniform(0, 50)),
                rng.normal(size=8),
                rng.normal(size=8),
            )
            assert 0.0 <= s <= 1.0

    def test_aligned_fast_client_scores_highest(self, rng):
        scorer = UtilityScorer()
        g = rng.normal(size=10)
        best = scorer.score(100.0, 100.0, g, g)
        worst = scorer.score(0.1, 0.1, -g, g)
        assert best > 0.9
        assert worst < 0.3
        assert best > worst

    def test_similarity_only_mode(self, rng):
        scorer = UtilityScorer(sim_weight=1.0, bw_weight=0.0)
        g = rng.normal(size=10)
        # Bandwidth must not matter.
        assert scorer.score(0.0, 0.0, g, g) == scorer.score(100.0, 100.0, g, g)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 200),
        bw_down=st.floats(0.0, 200.0),
        bw_up=st.floats(0.0, 200.0),
    )
    def test_property_score_in_unit_interval(self, seed, bw_down, bw_up):
        rng = np.random.default_rng(seed)
        scorer = UtilityScorer()
        s = scorer.score(bw_down, bw_up, rng.normal(size=6), rng.normal(size=6))
        assert 0.0 <= s <= 1.0
