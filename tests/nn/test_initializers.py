"""Tests for repro.nn.initializers."""

import math

import numpy as np
import pytest

from repro.nn import initializers as init


class TestFanInOut:
    def test_linear_shape(self):
        assert init._fan_in_out((8, 3)) == (3, 8)

    def test_conv_shape(self):
        fan_in, fan_out = init._fan_in_out((16, 4, 3, 3))
        assert fan_in == 4 * 9
        assert fan_out == 16 * 9

    def test_bias_shape(self):
        assert init._fan_in_out((5,)) == (5, 5)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            init._fan_in_out((2, 3, 4))


class TestZeros:
    def test_all_zero(self):
        out = init.zeros((3, 4))
        assert out.shape == (3, 4)
        assert np.all(out == 0.0)

    def test_dtype(self):
        assert init.zeros((2,)).dtype == np.float64


class TestKaiming:
    def test_uniform_bound(self, rng):
        shape = (32, 64)
        out = init.kaiming_uniform(shape, rng)
        bound = math.sqrt(6.0 / 64)
        assert np.all(np.abs(out) <= bound)

    def test_conv_fan_in(self, rng):
        out = init.kaiming_uniform((8, 4, 3, 3), rng)
        bound = math.sqrt(6.0 / (4 * 9))
        assert np.all(np.abs(out) <= bound)


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = init.kaiming_uniform((4, 4), np.random.default_rng(3))
        b = init.kaiming_uniform((4, 4), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_weights(self):
        a = init.kaiming_uniform((4, 4), np.random.default_rng(3))
        b = init.kaiming_uniform((4, 4), np.random.default_rng(4))
        assert not np.array_equal(a, b)
