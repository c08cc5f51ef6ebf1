"""Tests for QSGD and TernGrad quantisers."""

import numpy as np
import pytest

from repro.compression.qsgd import QSGDCompressor
from repro.compression.terngrad import TernGradCompressor


class TestQSGD:
    def test_roundtrip_shape(self, rng):
        comp = QSGDCompressor(50, num_levels=8, rng=rng)
        restored, payload = comp.roundtrip(rng.normal(size=50))
        assert restored.shape == (50,)
        assert payload.method == "qsgd"

    def test_unbiasedness(self):
        """E[decompress(compress(g))] == g (stochastic rounding)."""
        grad = np.array([0.3, -0.7, 1.1, 0.0, -0.05])
        comp = QSGDCompressor(5, num_levels=4, rng=np.random.default_rng(0))
        acc = np.zeros(5)
        n = 4000
        for _ in range(n):
            acc += comp.decompress(comp.compress(grad))
        np.testing.assert_allclose(acc / n, grad, atol=0.05)

    def test_zero_vector(self, rng):
        comp = QSGDCompressor(10, rng=rng)
        restored, _ = comp.roundtrip(np.zeros(10))
        np.testing.assert_array_equal(restored, np.zeros(10))

    def test_payload_smaller_than_dense(self, rng):
        comp = QSGDCompressor(1000, num_levels=4, rng=rng)
        payload = comp.compress(rng.normal(size=1000))
        assert payload.num_bytes < 4000
        assert payload.compression_ratio > 5.0

    def test_bits_per_element(self):
        assert QSGDCompressor(10, num_levels=1, rng=np.random.default_rng(0)).bits_per_element == 2.0
        assert QSGDCompressor(10, num_levels=15, rng=np.random.default_rng(0)).bits_per_element == 5.0

    def test_error_bounded_by_norm_over_levels(self, rng):
        grad = rng.normal(size=100)
        comp = QSGDCompressor(100, num_levels=64, rng=rng)
        restored, _ = comp.roundtrip(grad)
        norm = np.linalg.norm(grad)
        assert np.max(np.abs(restored - grad)) <= norm / 64 + 1e-9

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            QSGDCompressor(10, num_levels=0, rng=np.random.default_rng(0))

    def test_payload_without_its_level_count_is_refused(self, rng):
        """Not decoded with the constructor's count: that would rescale
        a gradient quantised at another width without a trace."""
        comp = QSGDCompressor(20, num_levels=4, rng=rng)
        payload = comp.compress(rng.normal(size=20), num_levels=16)
        del payload.data["num_levels"]
        with pytest.raises(KeyError):
            comp.decompress(payload)


class TestTernGrad:
    def test_values_are_ternary(self, rng):
        comp = TernGradCompressor(100, rng=rng)
        grad = rng.normal(size=100)
        payload = comp.compress(grad)
        assert set(np.unique(payload.data["ternary"]).tolist()) <= {-1, 0, 1}

    def test_unbiasedness(self):
        grad = np.array([0.5, -0.2, 1.0, 0.0])
        comp = TernGradCompressor(4, rng=np.random.default_rng(1))
        acc = np.zeros(4)
        n = 4000
        for _ in range(n):
            acc += comp.decompress(comp.compress(grad))
        np.testing.assert_allclose(acc / n, grad, atol=0.06)

    def test_max_magnitude_always_sent(self, rng):
        grad = np.array([0.1, -3.0, 0.2])
        comp = TernGradCompressor(3, rng=rng)
        restored, _ = comp.roundtrip(grad)
        assert restored[1] == -3.0  # |max| coordinate has probability 1

    def test_zero_vector(self, rng):
        comp = TernGradCompressor(5, rng=rng)
        restored, _ = comp.roundtrip(np.zeros(5))
        np.testing.assert_array_equal(restored, np.zeros(5))

    def test_fixed_2bit_size(self, rng):
        comp = TernGradCompressor(1000, rng=rng)
        payload = comp.compress(rng.normal(size=1000))
        assert payload.num_bytes == 250 + 4
        assert payload.compression_ratio > 15.0
