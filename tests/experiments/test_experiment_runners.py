"""Smoke-level integration tests for every figure/table runner.

These run at a micro scale (3-6 rounds, tiny models) — the goal is to
prove each experiment's plumbing end to end, not to reproduce the
paper's numbers (that is what ``benchmarks/`` does).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.ablation import ablation_variants, run_ablation
from repro.experiments.comparison import (
    default_adafl_config,
    run_fig3_async_panel,
    run_fig3_sync_panel,
)
from repro.experiments.empirical import run_fig1_async_panel, run_fig1_sync_panel
from repro.experiments.overhead import run_overhead_study
from repro.experiments.presets import FAST
from repro.experiments.scalability import run_scalability
from repro.experiments.tables import render_table, run_table1, run_table2

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


class TestFig1:
    def test_sync_panel_structure(self):
        panel = run_fig1_sync_panel(
            "mnist", "iid", "dropout", fractions=(0.0, 0.5), scale=TINY, seed=0
        )
        assert set(panel.series) == {"0%", "50%"}
        for x, y in panel.series.values():
            assert x.size == y.size > 0
            assert np.all((0 <= y) & (y <= 1))

    def test_sync_panel_dataloss_mode(self):
        panel = run_fig1_sync_panel(
            "mnist", "shard", "dataloss", fractions=(0.2,), scale=TINY, seed=0
        )
        assert "20%" in panel.series
        # Data loss must actually drop uploads.
        assert panel.runs["20%"].total_dropped > 0

    def test_dropout_reduces_updates(self):
        panel = run_fig1_sync_panel(
            "mnist", "iid", "dropout", fractions=(0.0, 0.5), scale=TINY, seed=0
        )
        assert panel.runs["50%"].total_uploads < panel.runs["0%"].total_uploads

    def test_async_panel_structure(self):
        panel = run_fig1_async_panel(
            "mnist", "iid", fractions=(0.0, 0.5), scale=TINY, seed=0
        )
        assert set(panel.series) == {"0%", "50%"}
        assert panel.x_name == "time_s"

    def test_bad_workload(self):
        with pytest.raises(ValueError):
            run_fig1_sync_panel("imagenet", "iid", "dropout", scale=TINY)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_fig1_sync_panel("mnist", "iid", "meteor", scale=TINY)


class TestFig3:
    def test_sync_panel_has_all_methods(self):
        panel = run_fig3_sync_panel("iid", scale=TINY, seed=0)
        assert set(panel.series) == {"fedavg", "fedadam", "fedprox", "scaffold", "adafl"}

    def test_async_panel_has_all_methods(self):
        panel = run_fig3_async_panel("iid", scale=TINY, seed=0)
        assert set(panel.series) == {"fedasync", "fedbuff", "adafl-async"}

    def test_adafl_uses_fewer_bytes(self):
        panel = run_fig3_sync_panel("iid", scale=TINY, seed=0)
        assert (
            panel.runs["adafl"].total_bytes_up < panel.runs["fedavg"].total_bytes_up
        )

    def test_default_config_scales_k(self):
        cfg = default_adafl_config(TINY)
        assert cfg.k_max == TINY.num_clients // 2


class TestTables:
    def test_table1_rows(self):
        rows = run_table1(scale=TINY, seed=0, datasets=("mnist",), distributions=("iid",))
        assert [r.method for r in rows] == [
            "fedavg",
            "fedadam",
            "fedprox",
            "scaffold",
            "adafl",
        ]
        for row in rows:
            assert 0.0 <= row.accuracy("mnist", "iid") <= 1.0
            assert row.update_freq > 0

    def test_table1_adafl_compression_columns(self):
        rows = run_table1(scale=TINY, seed=0, datasets=("mnist",), distributions=("iid",))
        adafl = rows[-1]
        fedavg = rows[0]
        assert adafl.participation == "adaptive"
        assert adafl.gradient_size[1] < fedavg.gradient_size[0]
        assert adafl.compression_ratio[0] > 1.0
        assert adafl.byte_reduction > fedavg.byte_reduction

    def test_table2_rows(self):
        rows = run_table2(scale=TINY, seed=0, datasets=("mnist",), distributions=("iid",))
        assert [r.method for r in rows] == ["fedasync", "fedbuff", "adafl-async"]

    def test_render_table(self):
        rows = run_table1(scale=TINY, seed=0, datasets=("mnist",), distributions=("iid",))
        text = render_table(rows, "Table I", datasets=("mnist",))
        assert "Table I" in text
        assert "adafl" in text
        assert "Update Freq." in text

    def test_sub_unity_compression_ratio_is_not_rounded_to_zero(self):
        """SCAFFOLD uploads delta + control variate: ratio 0.5, not ``0x``."""
        rows = run_table1(scale=TINY, seed=0, datasets=("mnist",), distributions=("iid",))
        scaffold = next(r for r in rows if r.method == "scaffold")
        assert scaffold.compression_ratio == (0.5, 0.5)
        line = next(
            ln for ln in render_table(rows, "Table I", datasets=("mnist",)).splitlines()
            if ln.startswith("scaffold")
        )
        assert "| 0.5x " in line and " 0x" not in line
        adafl = next(r for r in rows if r.method == "adafl")
        assert f"{adafl.compression_ratio[0]:.0f}x" in render_table(rows, "T", ("mnist",))


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
        points = run_scalability(client_counts=(10, 20), scale=TINY, seed=0)
        assert [p.num_clients for p in points] == [10, 20]
        for p in points:
            assert p.adafl_updates > 0
            assert 0.0 <= p.adafl_accuracy <= 1.0
            assert p.byte_saving > 0.0


class TestAblation:
    def test_variants_defined(self):
        variants = ablation_variants(TINY)
        assert "base(cosine)" in variants
        assert "metric=l2" in variants
        assert "fixed-heavy(210x)" in variants

    def test_subset_runs(self):
        variants = {
            k: v
            for k, v in ablation_variants(TINY).items()
            if k in ("base(cosine)", "no-warmup")
        }
        points = run_ablation(scale=TINY, seed=0, variants=variants)
        assert {p.variant for p in points} == set(variants)
        for p in points:
            assert p.updates > 0
