"""The lint pass: load → rules → pragmas → result.

:func:`run_lint` is the single entry point the gate script, the
benchmark section, and the tests all share.  Exit-code policy
(applied by callers via :func:`exit_code`):

* ``0`` — clean: no violations;
* ``1`` — violations;
* ``2`` — the pass itself failed (unreadable file, syntax error,
  unknown rule selector, a pragma naming no rule) — distinct so CI
  can tell "code is dirty" from "linter is broken".
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import rules as _rules  # noqa: F401 - populates registry
from repro.analysis.config import LintConfig, default_config
from repro.analysis.core import (
    LintResult,
    Violation,
    is_allowed,
    iter_rules,
    unknown_pragma_ids,
)
from repro.analysis.project import LintError, Project

__all__ = ["run_lint", "lint_project", "exit_code"]

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def lint_project(project: Project, select: list[str] | None = None) -> LintResult:
    """Run the (selected) rules over an already-loaded project."""
    config = project.config
    for source in project.files:
        unknown = unknown_pragma_ids(source.pragmas)
        if unknown:
            line, rule_id = unknown[0]
            raise LintError(f"{source.rel}:{line}: pragma names no rule or family: {rule_id}")
    raw: list[Violation] = []
    rules_run: list[str] = []
    for rule in iter_rules(select):
        rules_run.append(rule.id)
        if rule.scope == "project":
            raw.extend(rule.check_project(project))
        else:
            for source in project.files:
                raw.extend(rule.check_file(source, project))

    kept: list[Violation] = []
    pragma_suppressed = 0
    by_rel = {f.rel: f for f in project.files}
    for violation in raw:
        source = by_rel.get(violation.path)
        if source is not None and is_allowed(
            source.pragmas, violation.line, violation.rule
        ):
            pragma_suppressed += 1
        else:
            kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.rule))

    metrics = {
        "violations_by_rule": _count_by_rule(kept),
        "config_package": config.package,
    }
    return LintResult(
        violations=kept,
        pragma_suppressed=pragma_suppressed,
        files_checked=len(project),
        rules_run=rules_run,
        metrics=metrics,
    )


def _count_by_rule(violations: list[Violation]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    return dict(sorted(counts.items()))


def run_lint(
    paths: list[Path],
    src_root: Path,
    config: LintConfig | None = None,
    select: list[str] | None = None,
) -> LintResult:
    """Load ``paths`` and lint them; the one-call entry point."""
    config = config if config is not None else default_config()
    project = Project.load(paths, src_root=src_root, config=config)
    return lint_project(project, select=select)


def exit_code(result: LintResult) -> int:
    """Map a result onto the stable exit-code contract."""
    return EXIT_CLEAN if result.clean else EXIT_VIOLATIONS
