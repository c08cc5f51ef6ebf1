"""Tests for experiment presets and text reporting."""

import numpy as np
import pytest

from repro.experiments.presets import BENCH, FAST, FULL, get_scale
from repro.experiments.reporting import format_bytes, format_series, format_table


class TestPresets:
    def test_registry(self):
        assert get_scale("fast") is FAST
        assert get_scale("bench") is BENCH
        assert get_scale("full") is FULL

    def test_unknown(self):
        with pytest.raises(KeyError, match="known scales"):
            get_scale("huge")

    def test_ordering(self):
        assert FAST.num_rounds < BENCH.num_rounds < FULL.num_rounds
        assert FAST.train_samples < BENCH.train_samples < FULL.train_samples

    def test_full_matches_paper_shape(self):
        """FULL reproduces the paper's 10 clients x 80 rounds = 800 ideal."""
        assert FULL.num_clients == 10
        assert FULL.num_rounds == 80
        assert FULL.cnn_channels == (20, 50)


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(100) == "100B"

    def test_kilobytes(self):
        assert format_bytes(8 * 1024) == "8KB"

    def test_megabytes(self):
        assert format_bytes(1.64 * 1024 * 1024) == "1.64MB"

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_empty_headers(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_no_rows(self):
        out = format_table(["col"], [])
        assert "col" in out


class TestFormatSeries:
    def test_basic(self):
        out = format_series("fedavg", np.array([0, 1]), np.array([0.1, 0.9]))
        assert "fedavg" in out
        assert "0:0.100" in out
        assert "1:0.900" in out

    def test_subsamples_long_series(self):
        x = np.arange(100)
        y = np.linspace(0, 1, 100)
        out = format_series("m", x, y, max_points=5)
        assert out.count(":") <= 8  # label colon + few points

    def test_empty(self):
        out = format_series("m", np.zeros(0), np.zeros(0))
        assert "no data" in out

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            format_series("m", np.zeros(3), np.zeros(2))
