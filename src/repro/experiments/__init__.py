"""Experiment harness: one runner per paper table/figure plus ablations."""

from repro.experiments.ablation import AblationPoint, ablation_variants, run_ablation
from repro.experiments.analysis import (
    AggregateCurve,
    aggregate_accuracy_curves,
    curve_auc,
    interpolate_curve,
    time_to_accuracy_table,
)
from repro.experiments.comparison import (
    default_adafl_config,
    run_fig3,
    run_fig3_async_panel,
    run_fig3_sync_panel,
)
from repro.experiments.energy_study import EnergyStudyResult, run_energy_study
from repro.experiments.empirical import (
    STRAGGLER_FRACTIONS,
    PanelResult,
    run_fig1,
    run_fig1_async_panel,
    run_fig1_sync_panel,
)
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
    run_async,
    run_sync,
)
from repro.experiments.scalability import DEFAULT_CLIENT_COUNTS, ScalePoint, run_scalability
from repro.experiments.sensitivity import (
    NETWORK_CONDITIONS,
    SensitivityPoint,
    run_network_sensitivity,
)
from repro.experiments.spec import Named, RunSpec, open_run, run
from repro.experiments.sweep import (
    SweepConfig,
    SweepResult,
    SweepRow,
    render_sweep,
    run_sweep,
)
from repro.experiments.tables import TableRow, render_table, run_table1, run_table2

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
    "PanelResult",
    "STRAGGLER_FRACTIONS",
    "run_fig1",
    "run_fig1_sync_panel",
    "run_fig1_async_panel",
    "default_adafl_config",
    "run_fig3",
    "run_fig3_sync_panel",
    "run_fig3_async_panel",
    "TableRow",
    "run_table1",
    "run_table2",
    "render_table",
    "OverheadResult",
    "EnergyStudyResult",
    "run_energy_study",
    "run_overhead_study",
    "ScalePoint",
    "DEFAULT_CLIENT_COUNTS",
    "run_scalability",
    "AblationPoint",
    "AggregateCurve",
    "aggregate_accuracy_curves",
    "curve_auc",
    "interpolate_curve",
    "time_to_accuracy_table",
    "SensitivityPoint",
    "NETWORK_CONDITIONS",
    "run_network_sensitivity",
    "ablation_variants",
    "run_ablation",
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
