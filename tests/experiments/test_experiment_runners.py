"""Smoke-level integration tests for every figure/table runner.

These run at a micro scale (3-6 rounds, tiny models) — the goal is to
prove each experiment's plumbing end to end, not to reproduce the
paper's numbers (that is what ``benchmarks/`` does).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import STUDIES
from repro.experiments.ablation import ablation_grid
from repro.experiments.comparison import default_adafl_config, fig3_grid
from repro.experiments.empirical import fig1_grid
from repro.experiments.overhead import run_overhead_study
from repro.experiments.presets import FAST
from repro.experiments.scalability import scalability_grid
from repro.experiments.spec import Named, RunSpec, run_grid
from repro.experiments.tables import render_table, run_equal_time, table1_grid, table2_grid

TINY = replace(
    FAST,
    num_rounds=4,
    train_samples=120,
    test_samples=40,
    image_size=8,
    cnn_channels=(2, 4),
    cnn_hidden=8,
    eval_every=2,
)


def _cells(grid, keep):
    """The cells of ``grid`` whose key ``keep`` accepts."""
    return {key: spec for key, spec in grid.items() if keep(key)}


def _panel(grid, engine, title_part, labels):
    """Run the named curves of one figure panel: label -> result."""
    cells = _cells(grid, lambda k: k[0] == engine and title_part in k[1] and k[2] in labels)
    assert len({title for _, title, _ in cells}) == 1
    return {label: result for (_, _, label), result in run_grid(cells)}


def _fig1(engine, title_part, labels):
    return _panel(fig1_grid(TINY, 0), engine, title_part, labels)


def _mnist_iid(key) -> bool:
    """A table's first workload."""
    return key[1:] == ("mnist", "iid")


def _table1():
    return dict(run_grid(_cells(table1_grid(TINY, 0), _mnist_iid)))


class TestFig1:
    def test_sync_panel_structure(self):
        runs = _fig1("sync", "mnist, iid, dropout", ("0%", "50%"))
        assert set(runs) == {"0%", "50%"}
        for result in runs.values():
            x, y = result.accuracy_curve()
            assert x.size == y.size > 0
            assert np.all((0 <= y) & (y <= 1))

    def test_sync_panel_dataloss_mode(self):
        runs = _fig1("sync", "mnist, shard, dataloss", ("20%",))
        # Data loss must actually drop uploads.
        assert runs["20%"].total_dropped > 0

    def test_dropout_reduces_updates(self):
        runs = _fig1("sync", "mnist, iid, dropout", ("0%", "50%"))
        assert runs["50%"].total_uploads < runs["0%"].total_uploads

    def test_async_panel_structure(self):
        grid = fig1_grid(TINY, 0)
        runs = _panel(grid, "async", "mnist, iid", ("0%", "50%"))
        assert set(runs) == {"0%", "50%"}
        assert {k[1] for k in grid if k[0] == "async"} == {
            f"Async FedAsync, {w}, {d}, 3.0x-slow stragglers"
            for w in ("mnist", "cifar10") for d in ("iid", "shard")
        }

    def test_bad_workload(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            RunSpec.of(TINY, dataset="imagenet")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="unknown fault"):
            RunSpec.of(TINY, faults=(Named("meteor", {"fraction": 0.2}),))


class TestFig3:
    def test_sync_panel_has_all_methods(self):
        labels = {k[2] for k in fig3_grid(TINY, 0) if k[0] == "sync"}
        assert labels == {"fedavg", "fedadam", "fedprox", "scaffold", "adafl"}

    def test_async_panel_has_all_methods(self):
        grid = fig3_grid(TINY, 0)
        assert {k[2] for k in grid if k[0] == "async"} == {"fedasync", "fedbuff", "adafl-async"}
        runs = _panel(grid, "async", "iid", ("adafl-async",))
        assert runs["adafl-async"].method == "adafl-async"

    def test_adafl_uses_fewer_bytes(self):
        runs = _panel(fig3_grid(TINY, 0), "sync", "iid", ("fedavg", "adafl"))
        assert runs["adafl"].total_bytes_up < runs["fedavg"].total_bytes_up

    def test_default_config_scales_k(self):
        cfg = default_adafl_config(TINY)
        assert cfg.k_max == TINY.num_clients // 2


class TestTables:
    def test_table1_rows(self):
        results = _table1()
        assert [k[0] for k in results] == ["fedavg", "fedadam", "fedprox", "scaffold", "adafl"]
        for result in results.values():
            assert 0.0 <= result.final_accuracy <= 1.0
            assert result.total_uploads > 0

    def test_table1_adafl_compression_columns(self):
        results = _table1()
        adafl, fedavg = results["adafl", "mnist", "iid"], results["fedavg", "mnist", "iid"]
        assert adafl.gradient_size_range()[1] < fedavg.gradient_size_range()[0]
        assert adafl.compression_ratio_range()[0] > 1.0
        ideal = TINY.num_rounds * TINY.num_clients
        assert adafl.byte_cost_reduction(ideal) > fedavg.byte_cost_reduction(ideal)
        line = next(ln for ln in render_table(results, "T", TINY).splitlines()
                    if ln.startswith("adafl"))
        assert "| adaptive " in line

    def test_table2_rows(self):
        grid = _cells(table2_grid(TINY, 0), _mnist_iid)
        results = run_equal_time(grid)
        assert [k[0] for k in results] == ["fedasync", "fedbuff", "adafl"]
        assert [r.method for r in results.values()] == ["fedasync", "fedbuff", "adafl-async"]
        # Every other method runs on the simulated time FedAsync took.
        budget = results["fedasync", "mnist", "iid"].total_sim_time
        assert all(r.total_sim_time <= budget for r in results.values())

    def test_render_table(self):
        text = render_table(_table1(), "Table I", TINY)
        assert "Table I" in text
        assert "adafl" in text
        assert "Update Freq." in text
        assert "cifar100" not in text  # datasets come from the results

    def test_sub_unity_compression_ratio_is_not_rounded_to_zero(self):
        """SCAFFOLD uploads delta + control variate: ratio 0.5, not ``0x``."""
        results = _table1()
        assert results["scaffold", "mnist", "iid"].compression_ratio_range() == (0.5, 0.5)
        text = render_table(results, "Table I", TINY)
        line = next(ln for ln in text.splitlines() if ln.startswith("scaffold"))
        assert "| 0.5x " in line and " 0x" not in line
        adafl = results["adafl", "mnist", "iid"]
        assert f"{adafl.compression_ratio_range()[0]:.0f}x" in text


class TestOverhead:
    def test_reproduces_overhead_ordering(self):
        result = run_overhead_study(scale=TINY, seed=0)
        # The paper's Q3 findings, as orderings:
        # utility scoring is tiny; compression costs more than scoring;
        # selection saves training compute.
        assert result.utility_overhead_pct < 1.0
        assert result.compression_overhead_pct > result.utility_overhead_pct
        assert result.adafl_training_cycles < result.baseline_cycles
        assert result.net_cycles < result.baseline_cycles


class TestScalability:
    def test_two_sizes(self):
        grid = scalability_grid(TINY, 0)
        assert list(grid) == [(n, m) for n in (20, 50, 100) for m in ("adafl", "fedavg")]
        assert grid[20, "adafl"].federation.scale.num_clients == 20
        results = dict(run_grid(_cells(grid, lambda k: k[0] == 20)))
        adafl, fedavg = results[20, "adafl"], results[20, "fedavg"]
        assert adafl.total_uploads > 0
        assert 0.0 <= adafl.final_accuracy <= 1.0
        assert adafl.total_bytes_up < fedavg.total_bytes_up
        text = STUDIES["scalability"].render(results, TINY)
        assert text.splitlines()[2].startswith("20 ")


class TestAblation:
    def test_variants_defined(self):
        grid = ablation_grid(TINY, 0)
        assert "base(cosine)" in grid
        assert "metric=l2" in grid
        assert "fixed-heavy(210x)" in grid
        assert grid["metric=l2"].strategy == Named("adafl", {"scorer.metric": "l2"})

    def test_subset_runs(self):
        variants = ("base(cosine)", "no-warmup")
        results = dict(run_grid(_cells(ablation_grid(TINY, 0), lambda k: k in variants)))
        assert set(results) == set(variants)
        for result in results.values():
            assert result.total_uploads > 0
