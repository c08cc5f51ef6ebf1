"""reprolint — project-specific static analysis for repo invariants.

A self-contained, stdlib-``ast`` static checker that enforces the
guarantees the runtime suites only verify after the fact:

* **R1 determinism** — all randomness/time flows through seeded
  kernel streams (no ``np.random.*`` legacy API, stdlib ``random``,
  or wall-clock reads);
* **R2 layering** — the package DAG holds, no import cycles;
* **R3 trace taxonomy** — every emitted event type / drop reason is
  declared in :mod:`repro.sim.trace`, the drop-reason partition is
  closed, and the consumers still dispatch on it;
* **R4 hot-path hygiene** — explicit dtypes, no copy-inducing
  constructs, no array scatters in benchmark-pinned modules;
* **R5 API surface** — ``__all__`` consistency, docstrings,
  annotation coverage on public callables, and reachability of every
  module and export from an entry point;
* **R9–R11 flow-sensitive families** — built on an intraprocedural
  CFG (:mod:`repro.analysis.cfg`) and a monotone-fixpoint dataflow
  solver (:mod:`repro.analysis.dataflow`): RNG-stream discipline
  (R9), dtype/promotion hygiene on benchmark-pinned hot paths (R10),
  and resource/exception lifecycle in transport and population code
  (R11).

Entry points: ``repro lint`` (CLI, with ``--diff <ref>`` incremental
mode and ``--format sarif``), ``scripts/check_lint.py`` (CI gate),
:func:`repro.analysis.runner.run_lint` (library).  The package
depends only on the standard library — it never imports the code it
analyses.
"""

from repro.analysis.baseline import apply_baseline, load_baseline, save_baseline
from repro.analysis.config import (
    LintConfig,
    default_baseline_path,
    default_config,
    default_lint_paths,
    default_src_root,
)
from repro.analysis.core import (
    LintResult,
    Rule,
    RULE_REGISTRY,
    Violation,
    iter_rules,
    parse_pragmas,
    rule_catalogue,
)
from repro.analysis.incremental import lint_diff
from repro.analysis.project import LintError, Project, SourceFile
from repro.analysis.report import (
    render_catalogue,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.runner import exit_code, lint_project, run_lint

__all__ = [
    "LintConfig",
    "LintError",
    "LintResult",
    "Project",
    "Rule",
    "RULE_REGISTRY",
    "SourceFile",
    "Violation",
    "apply_baseline",
    "default_baseline_path",
    "default_config",
    "default_lint_paths",
    "default_src_root",
    "exit_code",
    "iter_rules",
    "lint_diff",
    "lint_project",
    "load_baseline",
    "parse_pragmas",
    "render_catalogue",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalogue",
    "run_lint",
    "save_baseline",
]
