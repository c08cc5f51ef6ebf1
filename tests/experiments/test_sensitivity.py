"""Tests for the network-sensitivity sweep."""

from dataclasses import replace

import pytest

from repro.experiments.presets import FAST
from repro.experiments.sensitivity import (
    NETWORK_CONDITIONS,
    _network,
    run_network_sensitivity,
)
from repro.experiments.spec import RunSpec

TINY = replace(
    FAST,
    num_rounds=3,
    train_samples=100,
    test_samples=40,
    image_size=8,
    cnn_channels=(2, 4),
    cnn_hidden=8,
    eval_every=3,
)


def _build_network(condition, num_clients, seed):
    """What a condition resolves to through the spec's network table."""
    scale = replace(TINY, num_clients=num_clients)
    return RunSpec.of(scale, seed, network=_network(condition)).resolve()[2]["network"]


class TestBuildNetwork:
    @pytest.mark.parametrize("condition", NETWORK_CONDITIONS)
    def test_all_conditions_build(self, condition):
        net = _build_network(condition, 6, seed=0)
        assert len(net) == 6

    def test_dynamic_has_traces(self):
        net = _build_network("dynamic", 4, seed=0)
        assert all(c.uplink_trace is not None for c in net.clients)

    def test_mixed_has_stragglers(self):
        net = _build_network("mixed", 10, seed=0)
        labels = {c.label for c in net.clients}
        assert labels == {"wifi", "constrained"}

    def test_unknown_condition(self):
        with pytest.raises(ValueError, match="unknown condition"):
            _build_network("5g", 4, seed=0)


class TestSweep:
    def test_two_conditions_run(self):
        points = run_network_sensitivity(
            conditions=("ethernet", "constrained"), scale=TINY, seed=0
        )
        assert [p.condition for p in points] == ["ethernet", "constrained"]
        for p in points:
            assert p.adafl_bytes_up > 0
            assert p.fedavg_bytes_up > 0
            assert 0.0 <= p.byte_saving <= 1.0

    def test_constrained_slower_than_ethernet(self):
        points = run_network_sensitivity(
            conditions=("ethernet", "constrained"), scale=TINY, seed=0
        )
        by_cond = {p.condition: p for p in points}
        assert (
            by_cond["constrained"].fedavg_time_s > by_cond["ethernet"].fedavg_time_s
        )

    def test_speedup_computed(self):
        points = run_network_sensitivity(conditions=("constrained",), scale=TINY, seed=0)
        assert points[0].speedup > 0
