"""Strategy-sweep harness: axis tables, config validation, determinism
against the committed artifact, and the headline resilience claim.

The committed ``data/sweep_baseline.json`` pins the constrained-network
comparison the README-level claim rests on: Adaptive Federated Dropout
and AdaGQ both cut uplink bytes by >=30% versus FedAvg at <=2 points of
accuracy cost.  Check or regenerate it with::

    python -m tests.experiments.regen_sweep_baseline --check
    python -m tests.experiments.regen_sweep_baseline --only sweep
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.adafl import AdaFLSync
from repro.experiments.runner import run_sync, straggler_network
from repro.experiments.spec import FAULTS, NETWORKS, STRATEGIES, default_adafl_config
from repro.experiments.sweep import (
    SweepConfig,
    SweepResult,
    render_sweep,
    run_sweep,
)

BASELINE_PATH = Path(__file__).parent / "data" / "sweep_baseline.json"

# The exact configuration the committed artifact was produced with.
BASELINE_CONFIG = SweepConfig(
    strategies=("fedavg", "afd", "adagq"),
    networks=("constrained",),
    faults=("none",),
    scale="fast",
    rounds=20,
    max_sim_time_s=3000.0,
    eval_every=4,
    seed=0,
)


class TestConfig:
    def test_registries_cover_defaults(self):
        for name in SweepConfig().strategies:
            assert name in STRATEGIES
        for name in SweepConfig().networks:
            assert name in NETWORKS
        for name in SweepConfig().faults:
            assert name in FAULTS

    def test_expands_to_one_spec_per_cell_reference_first(self):
        config = SweepConfig(
            strategies=("afd", "fedavg"), networks=("none", "wifi"),
            faults=("none", "dropout", "dataloss"),
        )
        specs = config.specs()
        assert len(specs) == 2 * 2 * 3
        assert [k[0] for k in specs][:2] == ["fedavg", "afd"]
        spec = specs[("afd", "wifi", "dataloss")]
        assert (spec.strategy.name, spec.network.name) == ("afd", "wifi")
        assert [f.name for f in spec.faults] == ["dataloss"]
        assert spec.federation.scale == config.resolved_scale()

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(strategies=("fedavg", "nope"))
        with pytest.raises(ValueError):
            SweepConfig(networks=("dialup",))
        with pytest.raises(ValueError):
            SweepConfig(faults=("gremlins",))
        with pytest.raises(ValueError, match="unknown strategy 'nope'; known: adafl"):
            SweepConfig(strategies=("fedavg", "nope"))
        with pytest.raises(ValueError, match="asynchronous"):
            SweepConfig(strategies=("fedavg", "fedbuff"))
        with pytest.raises(ValueError, match="unknown model"):
            SweepConfig(model="nope")
        with pytest.raises(ValueError):
            SweepConfig(strategies=("afd",), reference="fedavg")
        with pytest.raises(ValueError):
            SweepConfig(rounds=0)

    def test_resolved_scale_applies_overrides(self):
        scale = BASELINE_CONFIG.resolved_scale()
        assert scale.num_rounds == 20
        assert scale.max_sim_time_s == 3000.0
        assert scale.eval_every == 4

    def test_round_trips_through_dict(self):
        revived = SweepConfig.from_dict(BASELINE_CONFIG.to_dict())
        assert revived == BASELINE_CONFIG
        with pytest.raises(ValueError):
            SweepConfig.from_dict({"bogus_key": 1})


class TestArtifact:
    def test_baseline_parses(self):
        result = SweepResult.load(BASELINE_PATH)
        assert result.config == BASELINE_CONFIG
        assert len(result.rows) == 3
        ref = result.row("fedavg", "constrained", "none")
        assert ref.uplink_reduction == 0.0
        assert ref.accuracy_delta == 0.0

    def test_headline_claim(self):
        """AFD and AdaGQ: >=30% uplink saved at <=2pt accuracy cost."""
        result = SweepResult.load(BASELINE_PATH)
        for name in ("afd", "adagq"):
            row = result.row(name, "constrained", "none")
            assert row.uplink_reduction >= 0.30, (
                f"{name} saved only {row.uplink_reduction:.1%} uplink"
            )
            assert row.accuracy_delta >= -0.02, (
                f"{name} costs {-100 * row.accuracy_delta:.1f}pt accuracy"
            )

    def test_render_mentions_every_row(self):
        result = SweepResult.load(BASELINE_PATH)
        table = render_sweep(result)
        for row in result.rows:
            assert row.strategy in table

    def test_save_load_round_trip(self, tmp_path):
        result = SweepResult.load(BASELINE_PATH)
        out = tmp_path / "artifact.json"
        result.save(out)
        revived = SweepResult.load(out)
        assert revived.config == result.config
        assert revived.rows == result.rows
        assert json.loads(out.read_text()) == json.loads(
            BASELINE_PATH.read_text()
        )


class TestDeterminism:
    """A tiny live sweep is bit-stable and self-consistent."""

    @pytest.fixture(scope="class")
    def tiny_result(self):
        config = SweepConfig(
            strategies=("fedavg", "afd"),
            networks=("constrained",),
            faults=("none",),
            scale="fast",
            rounds=2,
            eval_every=2,
            seed=0,
        )
        return config, run_sweep(config)

    def test_rows_cover_grid(self, tiny_result):
        config, result = tiny_result
        assert len(result.rows) == 2
        assert {r.strategy for r in result.rows} == set(config.strategies)

    def test_rerun_bit_identical(self, tiny_result):
        config, result = tiny_result
        again = run_sweep(config)
        assert again.to_dict() == result.to_dict()

    def test_reference_row_invariants(self, tiny_result):
        _, result = tiny_result
        ref = result.row("fedavg", "constrained", "none")
        afd = result.row("afd", "constrained", "none")
        assert ref.uplink_reduction == 0.0
        assert afd.uplink_reduction == pytest.approx(
            1.0 - afd.total_bytes_up / ref.total_bytes_up
        )
        assert afd.accuracy_delta == pytest.approx(
            afd.final_accuracy - ref.final_accuracy
        )


class TestPaperFailureCells:
    """Fig. 1's dropout / data-loss modes are fault names a sweep can use."""

    def test_zoo_strategies_run_in_the_failure_cells(self):
        config = SweepConfig(
            strategies=("fedavg", "afd"), faults=("none", "dropout", "dataloss"),
            rounds=2, eval_every=2,
        )
        result = run_sweep(config)
        assert [(r.strategy, r.fault) for r in result.rows] == [
            (s, f) for f in config.faults for s in config.strategies
        ]
        # Dropout gates selection every round, so the trajectory moves.
        clean = result.row("fedavg", "constrained", "none")
        dropout = result.row("fedavg", "constrained", "dropout")
        assert dropout.total_sim_time != clean.total_sim_time
        plan = config.specs()[("afd", "constrained", "dataloss")].resolve()[2]["chaos"]
        assert plan.upload_loss is not None and plan.dropout is None


class TestAdaFLCell:
    """``adafl`` is the evaluation's AdaFL in the sweep too — it used to
    be ``AdaFLSync()`` at library defaults, which no table ever ran."""

    def test_matches_the_hand_assembled_run(self):
        config = SweepConfig(strategies=("fedavg", "adafl"), rounds=4, eval_every=2)
        row = run_sweep(config).row("adafl", "constrained", "none")
        spec = config.specs()[("adafl", "constrained", "none")].federation
        scale = spec.scale
        want = run_sync(
            spec,
            AdaFLSync(default_adafl_config(scale)),
            network=straggler_network(scale.num_clients, config.seed),
        )
        assert (row.final_accuracy, row.total_bytes_up, row.total_uploads) == (
            want.final_accuracy, want.total_bytes_up, want.total_uploads,
        )
        library_default = run_sync(
            spec, AdaFLSync(), network=straggler_network(scale.num_clients, config.seed)
        )
        assert library_default.total_bytes_up != row.total_bytes_up


class TestBaselineIsCurrent:
    """The committed artifact matches what the code produces today.

    Full 20-round regeneration is minutes of work, so tier-1 only pins
    the stored config (above) plus the 2-round determinism suite; set
    ``REPRO_SLOW_TESTS=1`` to re-run the whole artifact.
    """

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="full sweep regeneration takes minutes; set REPRO_SLOW_TESTS=1",
    )
    def test_full_regeneration_matches(self):
        live = run_sweep(BASELINE_CONFIG)
        stored = SweepResult.load(BASELINE_PATH)
        assert live.to_dict() == stored.to_dict()
