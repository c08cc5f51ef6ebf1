"""Tests for Algorithm 1 (adaptive node selection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import reservoir_sample, select_from_scores


def _select(scores: dict, k: int, tau: float):
    """Algorithm 1 over a ``{client_id: S_i}`` map, as the tests state it."""
    ids = np.fromiter(scores, dtype=np.int64, count=len(scores))
    vals = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    return select_from_scores(ids, vals, k, tau)


class TestBasics:
    def test_selects_top_k(self):
        scores = {0: 0.9, 1: 0.8, 2: 0.7, 3: 0.6}
        result = _select(scores, k=2, tau=0.0)
        assert result.selected == (0, 1)
        assert result.truncated == (2, 3)

    def test_threshold_filters(self):
        scores = {0: 0.9, 1: 0.3, 2: 0.7}
        result = _select(scores, k=3, tau=0.5)
        assert set(result.selected) == {0, 2}
        assert result.filtered_out == (1,)

    def test_all_below_threshold(self):
        result = _select({0: 0.1, 1: 0.2}, k=2, tau=0.9)
        assert result.selected == ()
        assert result.num_selected == 0

    def test_k_larger_than_filtered(self):
        result = _select({0: 0.9, 1: 0.8}, k=10, tau=0.5)
        assert set(result.selected) == {0, 1}

    def test_ordered_by_score_descending(self):
        scores = {0: 0.5, 1: 0.9, 2: 0.7}
        result = _select(scores, k=3, tau=0.0)
        assert result.selected == (1, 2, 0)

    def test_tie_broken_by_id(self):
        result = _select({5: 0.5, 2: 0.5, 9: 0.5}, k=2, tau=0.0)
        assert result.selected == (2, 5)

    def test_boundary_score_passes(self):
        result = _select({0: 0.5}, k=1, tau=0.5)
        assert result.selected == (0,)

    def test_empty_scores(self):
        result = _select({}, k=3, tau=0.5)
        assert result.selected == ()


class TestValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            _select({0: 0.5}, k=0, tau=0.5)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            _select({0: 0.5}, k=1, tau=1.5)


class TestAlgorithmConstraints:
    """The three 'Subject to' constraints stated in Algorithm 1."""

    @settings(max_examples=100, deadline=None)
    @given(
        scores=st.dictionaries(
            st.integers(0, 30), st.floats(0.0, 1.0), min_size=0, max_size=20
        ),
        k=st.integers(1, 10),
        tau=st.floats(0.0, 1.0),
    )
    def test_property_constraints_hold(self, scores, k, tau):
        result = _select(scores, k=k, tau=tau)
        selected = set(result.selected)
        # |C_selected| <= K
        assert len(selected) <= k
        # forall i in selected: S_i >= tau
        assert all(scores[i] >= tau for i in selected)
        # forall i selected, j not selected: S_i >= S_j (among filtered)
        unselected_passing = [
            s for cid, s in scores.items() if cid not in selected and s >= tau
        ]
        if selected and unselected_passing:
            assert min(scores[i] for i in selected) >= max(unselected_passing) - 1e-12
        # Bookkeeping partitions the input.
        assert selected | set(result.filtered_out) | set(result.truncated) == set(scores)


class TestArrayPath:
    """``select_from_scores`` is O(n + K log K): it never sorts more
    than the selected set, yet must rank exactly as a full sort would."""

    def test_nan_scores_fail_threshold(self):
        ids = np.array([0, 1, 2], dtype=np.int64)
        scores = np.array([0.9, np.nan, 0.7])
        result = select_from_scores(ids, scores, k=3, tau=0.0)
        assert result.selected == (0, 2)
        assert result.filtered_out == (1,)

    def test_argpartition_cut_matches_full_sort_tiebreak(self):
        # Five-way tie straddling the K-th boundary: the exact
        # (-score, id) order must survive the partial sort.
        ids = np.array([9, 3, 7, 1, 5], dtype=np.int64)
        scores = np.full(5, 0.5)
        result = select_from_scores(ids, scores, k=3, tau=0.0)
        assert result.selected == (1, 3, 5)
        assert result.truncated == (7, 9)

    def test_track_rejected_off_skips_bookkeeping(self):
        ids = np.arange(6, dtype=np.int64)
        scores = np.linspace(1.0, 0.0, 6)
        result = select_from_scores(ids, scores, k=2, tau=0.3, track_rejected=False)
        assert result.selected == (0, 1)
        assert result.filtered_out == ()
        assert result.truncated == ()

    @settings(max_examples=100, deadline=None)
    @given(
        scores=st.dictionaries(
            st.integers(0, 30), st.floats(0.0, 1.0), min_size=0, max_size=20
        ),
        k=st.integers(1, 10),
        tau=st.floats(0.0, 1.0),
    )
    def test_property_matches_full_sort_reference(self, scores, k, tau):
        passing = sorted(
            (cid for cid, s in scores.items() if s >= tau),
            key=lambda cid: (-scores[cid], cid),
        )
        result = _select(scores, k=k, tau=tau)
        assert result.selected == tuple(passing[:k])
        assert result.truncated == tuple(sorted(passing[k:]))
        assert result.filtered_out == tuple(
            sorted(cid for cid, s in scores.items() if not s >= tau)
        )


class _CountingRng:
    """Generator proxy counting every method call made through it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class _OneShot:
    """Iterator (no ``len``, no restart) counting the items it hands out."""

    def __init__(self, n):
        self._it = iter(range(n))
        self.pulled = 0
        self.exhausted = False

    def __iter__(self):
        return self

    def __next__(self):
        try:
            item = next(self._it)
        except StopIteration:
            self.exhausted = True
            raise
        self.pulled += 1
        return item


class TestReservoirSample:
    def test_returns_all_when_k_covers_stream(self):
        rng = _CountingRng(np.random.default_rng(0))
        assert reservoir_sample(range(4), 10, rng) == [0, 1, 2, 3]
        assert rng.calls == 0  # short stream: nothing to draw

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_returns_stream_in_order_when_k_equals_n(self, n):
        assert reservoir_sample(range(n), n, np.random.default_rng(0)) == list(range(n))

    def test_deterministic_given_rng(self):
        a = reservoir_sample(range(1000), 5, np.random.default_rng(42))
        b = reservoir_sample(range(1000), 5, np.random.default_rng(42))
        assert a == b
        assert len(a) == 5
        assert len(set(a)) == 5
        assert all(0 <= cid < 1000 for cid in a)

    def test_uniform_ish_coverage(self):
        # Every element equally likely. With 200 draws of 10 from 40,
        # each id appears ~50 times; assert a loose band.
        counts = np.zeros(40, dtype=np.int64)
        rng = np.random.default_rng(7)
        for _ in range(200):
            for cid in reservoir_sample(range(40), 10, rng):
                counts[cid] += 1
        assert counts.min() > 20
        assert counts.max() < 90

    @pytest.mark.parametrize("n, k", [(40, 10), (9, 8), (200, 1)])
    def test_uniform_inclusion_chi_square(self, n, k):
        # Every element is included with probability k/n.  Inclusions
        # within one draw are negatively correlated (exactly k are
        # kept), which only shrinks the statistic, so the chi-square
        # 0.999 quantile at n-1 degrees of freedom is a safe ceiling.
        draws = 6000
        counts = np.zeros(n, dtype=np.int64)
        rng = np.random.default_rng(7)
        for _ in range(draws):
            sample = reservoir_sample(iter(range(n)), k, rng)
            assert len(set(sample)) == k
            counts[sample] += 1
        expected = draws * k / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        ceiling = {40: 72.1, 9: 26.1, 200: 266.4}[n]  # chi2.ppf(0.999, n-1)
        assert chi2 < ceiling

    def test_slot_positions_are_uniform_too(self):
        # Not just *which* ids survive: each late id lands in every
        # reservoir slot equally often (Algorithm L's random slot).
        slots = np.zeros(4, dtype=np.int64)
        rng = np.random.default_rng(11)
        for _ in range(4000):
            sample = reservoir_sample(range(50), 4, rng)
            for pos, cid in enumerate(sample):
                if cid >= 4:
                    slots[pos] += 1
        assert slots.min() / slots.max() > 0.9

    def test_one_shot_generator_consumed_exactly_once(self):
        stream = _OneShot(5000)
        sample = reservoir_sample(stream, 6, np.random.default_rng(3))
        assert len(sample) == 6 and len(set(sample)) == 6
        assert stream.exhausted
        assert stream.pulled == 5000  # one pass, every item pulled once
        assert reservoir_sample(stream, 6, np.random.default_rng(3)) == []

    def test_plain_generator_expression(self):
        sample = reservoir_sample((i * 3 for i in range(100)), 5, np.random.default_rng(1))
        assert len(sample) == 5
        assert all(cid % 3 == 0 and 0 <= cid < 300 for cid in sample)

    @pytest.mark.parametrize("n, k", [(100_000, 8), (100_000, 1), (5_000, 64), (65, 64)])
    def test_generator_calls_are_skip_ahead_bounded(self, n, k):
        # Algorithm R made n - k draws; Algorithm L makes three per
        # replacement and E[replacements] = k * ln(n / k).
        for seed in range(5):
            rng = _CountingRng(np.random.default_rng(seed))
            reservoir_sample(range(n), k, rng)
            assert rng.calls <= 6 * k * (1 + np.log(n / k))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            reservoir_sample(range(4), 0, np.random.default_rng(0))
