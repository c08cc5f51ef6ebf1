"""Tests for the network-sensitivity grid."""

from dataclasses import replace

import pytest

from repro.experiments.presets import FAST
from repro.experiments.reporting import adafl_vs_fedavg
from repro.experiments.sensitivity import NETWORK_CONDITIONS, sensitivity_grid
from repro.experiments.spec import RunSpec, run_grid

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
    return RunSpec.of(scale, seed, network=NETWORK_CONDITIONS[condition]).resolve()[2]["network"]


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
        with pytest.raises(ValueError, match="unknown network '5g'"):
            RunSpec.of(TINY, network="5g")


def _run(*conditions):
    """``condition -> (AdaFL run, FedAvg run)`` for some of the grid's conditions."""
    grid = sensitivity_grid(TINY, 0)
    return adafl_vs_fedavg(dict(run_grid({k: s for k, s in grid.items() if k[0] in conditions})))


class TestSweep:
    def test_grid_pairs_methods_per_condition(self):
        grid = sensitivity_grid(TINY, 0)
        assert list(grid) == [(c, m) for c in NETWORK_CONDITIONS for m in ("adafl", "fedavg")]
        assert grid["mixed", "fedavg"].network == NETWORK_CONDITIONS["mixed"]

    def test_two_conditions_run(self):
        for adafl, fedavg in _run("ethernet", "constrained").values():
            assert adafl.total_bytes_up > 0
            assert fedavg.total_bytes_up > 0
            assert 0.0 <= 1.0 - adafl.total_bytes_up / fedavg.total_bytes_up <= 1.0

    def test_constrained_slower_than_ethernet(self):
        runs = _run("ethernet", "constrained")
        assert runs["constrained"][1].total_sim_time > runs["ethernet"][1].total_sim_time

    def test_speedup_computed(self):
        adafl, fedavg = _run("constrained")["constrained"]
        assert adafl.total_sim_time > 0
        assert fedavg.total_sim_time / adafl.total_sim_time > 0
