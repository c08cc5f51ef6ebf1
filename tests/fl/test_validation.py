"""Tests for server-side update validation and robust aggregation."""

import numpy as np
import pytest

from repro.fl.client import ClientUpdate
from repro.fl.validation import UpdateValidator, ValidationConfig, trimmed_mean


def _update(cid=0, delta=None):
    return ClientUpdate(
        client_id=cid,
        round_index=0,
        num_samples=10,
        delta=np.zeros(4) if delta is None else delta,
        train_loss=0.5,
        flops=100,
    )


class TestValidationConfig:
    def test_defaults(self):
        cfg = ValidationConfig()
        assert cfg.forbid_nonfinite
        assert cfg.reject_duplicates

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_norm": 0.0},
            {"max_norm": -1.0},
            {"max_staleness": -1},
            {"trim_ratio": 0.5},
            {"trim_ratio": -0.1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ValidationConfig(**kwargs)


class TestTrimmedMean:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            trimmed_mean([])

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            trimmed_mean([np.zeros(3)], trim_ratio=0.6)

    def test_zero_trim_is_plain_mean(self):
        deltas = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        np.testing.assert_array_equal(
            trimmed_mean(deltas, trim_ratio=0.0), np.array([2.0, 3.0])
        )

    def test_trims_the_outlier(self):
        clean = [np.full(3, float(v)) for v in (1.0, 2.0, 3.0, 4.0)]
        poisoned = clean + [np.full(3, 1e9)]
        out = trimmed_mean(poisoned, trim_ratio=0.2)  # k = 1 of 5
        assert np.all(out < 10.0)

    def test_nan_robust_when_trim_covers_corruption(self):
        clean = [np.full(4, float(v)) for v in (1.0, 2.0, 3.0, 4.0)]
        poisoned = clean + [np.full(4, np.nan)]
        out = trimmed_mean(poisoned, trim_ratio=0.2)
        assert np.all(np.isfinite(out))  # NaN sorts to the trimmed tail

    def test_overlarge_trim_is_clamped(self):
        deltas = [np.array([v]) for v in (1.0, 2.0, 3.0)]
        out = trimmed_mean(deltas, trim_ratio=0.4)  # floor(1.2)=1; 2k<n holds
        np.testing.assert_array_equal(out, np.array([2.0]))

    @pytest.mark.parametrize("n,ratio", [(5, 0.2), (8, 0.25), (11, 0.3), (20, 0.45)])
    def test_partition_matches_full_sort_bitwise(self, n, ratio):
        # The O(n) multi-kth partition must reproduce the old
        # sort-based implementation exactly, coordinate by coordinate.
        rng = np.random.default_rng(17)
        deltas = [rng.normal(size=257) * 10.0 ** rng.integers(-3, 4)
                  for _ in range(n)]
        expected_stack = np.sort(np.stack(deltas), axis=0)
        k = int(np.floor(ratio * n))
        if 2 * k >= n:
            k = (n - 1) // 2
        expected = expected_stack[k : n - k].mean(axis=0)
        np.testing.assert_array_equal(trimmed_mean(deltas, ratio), expected)

    def test_does_not_mutate_inputs(self):
        deltas = [np.array([3.0, 1.0]), np.array([1.0, 3.0]),
                  np.array([2.0, 2.0])]
        snapshots = [d.copy() for d in deltas]
        trimmed_mean(deltas, trim_ratio=0.34)
        for d, s in zip(deltas, snapshots):
            np.testing.assert_array_equal(d, s)


class TestSerials:
    def test_stamp_is_monotone(self):
        v = UpdateValidator(ValidationConfig())
        updates = [_update(cid=i) for i in range(3)]
        for u in updates:
            v.stamp(u)
        assert [u.extras["upload_serial"] for u in updates] == [0, 1, 2]

    def test_replay_caught_on_second_sight(self):
        v = UpdateValidator(ValidationConfig())
        u = _update()
        v.stamp(u)
        assert v.check_replay(u) is None
        assert v.check_replay(u) == "stale"

    def test_replay_check_disabled(self):
        v = UpdateValidator(ValidationConfig(reject_duplicates=False))
        u = _update()
        v.stamp(u)
        assert v.check_replay(u) is None
        assert v.check_replay(u) is None

    def test_unstamped_update_passes(self):
        v = UpdateValidator(ValidationConfig())
        assert v.check_replay(_update()) is None


class TestStaleness:
    def test_unlimited_by_default(self):
        v = UpdateValidator(ValidationConfig())
        assert v.check_staleness(10**6) is None

    def test_bound_enforced(self):
        v = UpdateValidator(ValidationConfig(max_staleness=2))
        assert v.check_staleness(2) is None
        assert v.check_staleness(3) == "stale"


class TestScreens:
    def test_clean_vector_passes(self):
        v = UpdateValidator(ValidationConfig(max_norm=10.0))
        assert v.screen(np.ones(100)) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        v = UpdateValidator(ValidationConfig())
        delta = np.ones(50)
        delta[17] = bad
        assert v.screen(delta) == "corrupt"

    def test_opposite_infinities_still_caught(self):
        v = UpdateValidator(ValidationConfig())
        delta = np.zeros(4)
        delta[0], delta[1] = np.inf, -np.inf  # sum is NaN, not finite
        with np.errstate(invalid="ignore"):
            assert v.screen(delta) == "corrupt"

    def test_norm_blowup_rejected(self):
        v = UpdateValidator(ValidationConfig(max_norm=1.0))
        assert v.screen(np.full(4, 10.0)) == "corrupt"
        assert v.screen(np.full(4, 0.1)) is None

    def test_nonfinite_screen_can_be_disabled(self):
        v = UpdateValidator(ValidationConfig(forbid_nonfinite=False))
        assert v.screen(np.array([np.nan])) is None

    def test_screen_aggregate(self):
        v = UpdateValidator(ValidationConfig())
        assert not v.screen_aggregate(np.ones(10))
        poisoned = np.ones(10)
        poisoned[3] = np.nan
        assert v.screen_aggregate(poisoned)

    def test_screen_aggregate_respects_disable(self):
        v = UpdateValidator(ValidationConfig(forbid_nonfinite=False))
        assert not v.screen_aggregate(np.array([np.nan]))
