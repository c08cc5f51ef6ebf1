"""Helpers for reprolint tests: fixture projects with injected configs.

Fixture snippets under ``fixtures/`` are never imported — they are
parsed by the linter with an *explicit* fake module name, so one flat
directory can impersonate any spot in the package tree (a ``repro.nn``
module importing ``fl``, a fake taxonomy at ``fix.trace``, ...).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.analysis import default_config, lint_project
from repro.analysis.core import LintResult
from repro.analysis.project import Project, SourceFile

FIXTURES = Path(__file__).parent / "fixtures"

__all__ = ["FIXTURES", "make_project", "lint_fixture", "rule_ids"]


def make_project(entries: list[tuple[str, str]], **config_overrides) -> Project:
    """A Project of ``(fixture_filename, fake_module_name)`` pairs."""
    config = default_config()
    if config_overrides:
        config = dataclasses.replace(config, **config_overrides)
    files = [
        SourceFile.from_path(FIXTURES / name, module=module, rel=name)
        for name, module in entries
    ]
    return Project(files, config=config)


def lint_fixture(
    entries: list[tuple[str, str]],
    select: list[str],
    **config_overrides,
) -> LintResult:
    """Lint fixture files with only the selected rules."""
    return lint_project(make_project(entries, **config_overrides), select=select)


def rule_ids(result: LintResult) -> list[str]:
    """The violated rule ids, sorted (duplicates preserved)."""
    return sorted(v.rule for v in result.violations)
