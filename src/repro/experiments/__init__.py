"""Experiment harness: each paper study is a grid of ``RunSpec``s fed to ``run_grid``."""

from repro.experiments.ablation import ablation_grid
from repro.experiments.analysis import (
    AggregateCurve,
    aggregate_accuracy_curves,
    curve_auc,
    interpolate_curve,
    time_to_accuracy_table,
)
from repro.experiments.comparison import default_adafl_config, fig3_grid
from repro.experiments.energy_study import EnergyStudyResult, run_energy_study
from repro.experiments.empirical import STRAGGLER_FRACTIONS, fig1_grid
from repro.experiments.overhead import OverheadResult, run_overhead_study
from repro.experiments.presets import BENCH, FAST, FULL, SCALES, ExperimentScale, get_scale
from repro.experiments.reporting import format_bytes, format_series, format_table
from repro.experiments.report_html import runs_to_html, svg_curve, write_report
from repro.experiments.runner import (
    DATASET_PROFILES,
    DatasetProfile,
    Federation,
    FederationSpec,
    build_federation,
    format_panels,
    run_async,
    run_sync,
)
from repro.experiments.scalability import scalability_grid
from repro.experiments.sensitivity import NETWORK_CONDITIONS, sensitivity_grid
from repro.experiments.spec import Named, RunSpec, open_run, run, run_grid
from repro.experiments.sweep import (
    SweepConfig,
    SweepResult,
    SweepRow,
    render_sweep,
    run_sweep,
)
from repro.experiments.tables import render_table, run_equal_time, table1_grid, table2_grid

__all__ = [
    "ExperimentScale",
    "FAST",
    "BENCH",
    "FULL",
    "SCALES",
    "get_scale",
    "FederationSpec",
    "Federation",
    "DatasetProfile",
    "DATASET_PROFILES",
    "build_federation",
    "run_sync",
    "run_async",
    "RunSpec",
    "Named",
    "open_run",
    "run",
    "run_grid",
    "format_panels",
    "STRAGGLER_FRACTIONS",
    "fig1_grid",
    "default_adafl_config",
    "fig3_grid",
    "table1_grid",
    "table2_grid",
    "run_equal_time",
    "render_table",
    "OverheadResult",
    "EnergyStudyResult",
    "run_energy_study",
    "run_overhead_study",
    "scalability_grid",
    "AggregateCurve",
    "aggregate_accuracy_curves",
    "curve_auc",
    "interpolate_curve",
    "time_to_accuracy_table",
    "NETWORK_CONDITIONS",
    "sensitivity_grid",
    "ablation_grid",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "render_sweep",
    "format_table",
    "format_series",
    "format_bytes",
    "svg_curve",
    "runs_to_html",
    "write_report",
]
