"""reprolint — project-specific static analysis for repo invariants.

A self-contained, stdlib-``ast`` static checker for the invariants
tier-1 cannot check at run time (the rule audit in
``docs/linting.md`` deleted every rule a test already enforces):

* **R1 determinism** — no wall-clock reads: time is the simulated
  clock;
* **R2 layering** — the package DAG holds, no import cycles;
* **R3 drop taxonomy** — every emitted drop reason is declared in
  :mod:`repro.sim.trace`, the drop-reason partition is closed, and
  the consumers still dispatch on it;
* **R5 reachability** — every module and export is reached from an
  entry point.

Entry points: ``scripts/check_lint.py`` (the one command line, and
the CI gate) and :func:`repro.analysis.runner.run_lint` (library).
The package depends only on the standard library — it never imports
the code it analyses, so it can report a layering break or an import
cycle on a tree that cannot import.
"""

from repro.analysis.config import (
    LintConfig,
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
from repro.analysis.project import LintError, Project, SourceFile
from repro.analysis.report import (
    render_catalogue,
    render_json,
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
    "default_config",
    "default_lint_paths",
    "default_src_root",
    "exit_code",
    "iter_rules",
    "lint_project",
    "parse_pragmas",
    "render_catalogue",
    "render_json",
    "render_text",
    "rule_catalogue",
    "run_lint",
]
