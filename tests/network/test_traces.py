"""Tests for bandwidth traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.traces import (
    BandwidthTrace,
    diurnal_trace,
    gauss_markov_trace,
    markov_onoff_trace,
)


class TestBandwidthTrace:
    def test_lookup_inside_segments(self):
        trace = BandwidthTrace(
            times=np.array([0.0, 10.0, 20.0]),
            bandwidth_mbps=np.array([1.0, 2.0, 3.0]),
        )
        assert trace.bandwidth_at(0.0) == 1.0
        assert trace.bandwidth_at(9.9) == 1.0
        assert trace.bandwidth_at(10.0) == 2.0
        assert trace.bandwidth_at(25.0) == 3.0

    def test_wraps_around(self):
        trace = BandwidthTrace(
            times=np.array([0.0, 10.0]),
            bandwidth_mbps=np.array([1.0, 2.0]),
        )
        assert trace.duration == 20.0
        assert trace.bandwidth_at(20.0) == 1.0  # wrapped
        assert trace.bandwidth_at(35.0) == 2.0

    def test_negative_time_raises(self):
        trace = BandwidthTrace(np.array([0.0]), np.array([5.0]))
        with pytest.raises(ValueError):
            trace.bandwidth_at(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([1.0]), np.array([5.0]))  # must start at 0
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))  # not increasing
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([0.0]), np.array([-1.0]))  # negative bw

    def test_mean_bandwidth_weighted(self):
        trace = BandwidthTrace(
            times=np.array([0.0, 10.0]),
            bandwidth_mbps=np.array([1.0, 3.0]),
        )
        assert abs(trace.mean_bandwidth() - 2.0) < 1e-12


class TestGenerators:
    def test_gauss_markov_positive_and_near_mean(self, rng):
        trace = gauss_markov_trace(10.0, rng, num_steps=500)
        assert np.all(trace.bandwidth_mbps > 0)
        log_mean = np.mean(np.log(trace.bandwidth_mbps))
        assert abs(log_mean - np.log(10.0)) < 1.0

    def test_markov_onoff_two_levels(self, rng):
        trace = markov_onoff_trace(20.0, 1.0, rng, num_steps=200)
        levels = set(trace.bandwidth_mbps.tolist())
        assert levels <= {20.0, 1.0}
        assert len(levels) == 2  # both states visited

    def test_diurnal_range(self):
        trace = diurnal_trace(20.0, 2.0)
        assert abs(trace.bandwidth_mbps.max() - 20.0) < 1e-9
        assert trace.bandwidth_mbps.min() >= 2.0 - 1e-9

    def test_diurnal_swapped_args_ok(self):
        trace = diurnal_trace(2.0, 20.0)
        assert trace.bandwidth_mbps.max() <= 20.0 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(mean=st.floats(0.5, 100.0), steps=st.integers(5, 100))
    def test_gauss_markov_property_positive(self, mean, steps):
        trace = gauss_markov_trace(mean, np.random.default_rng(0), num_steps=steps)
        assert np.all(trace.bandwidth_mbps > 0)
        assert trace.times.size == steps
