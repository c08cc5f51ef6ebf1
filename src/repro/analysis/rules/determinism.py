"""R1: determinism — simulated time is the only clock.

Bit-identical trajectories (the property the equivalence suites pin)
need every timestamp to come from the simulated clock.

* **R103** — a wall-clock read (``time.time``, ``datetime.now``, …)
  leaks host time into simulated behaviour.

Randomness needs no rule: a draw from the legacy ``np.random`` API or
the stdlib ``random`` module on a pinned path fails the bit-identity
tests (the rule audit in ``docs/linting.md``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileRule, Violation, register_rule
from repro.analysis.project import Project, SourceFile

__all__ = ["WallClockRule"]

_BANNED_TIME_ATTRS = frozenset({"time", "time_ns"})
_BANNED_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Names bound to top-level module ``module`` (``import time as t``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module)
    return aliases


@register_rule
class WallClockRule(FileRule):
    """R103: wall-clock reads are forbidden in simulation code."""

    id = "R103"
    summary = "wall-clock read (time.time / datetime.now); simulated time only"

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterator[Violation]:
        time_names = _module_aliases(source.tree, "time")
        datetime_mods = _module_aliases(source.tree, "datetime")
        # names bound to the datetime.datetime / datetime.date classes
        datetime_classes: set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_classes.add(alias.asname or alias.name)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            banned: str | None = None
            if (
                isinstance(value, ast.Name)
                and value.id in time_names
                and node.attr in _BANNED_TIME_ATTRS
            ):
                banned = f"time.{node.attr}"
            elif (
                isinstance(value, ast.Name)
                and value.id in datetime_classes
                and node.attr in _BANNED_DATETIME_ATTRS
            ):
                banned = f"datetime.{node.attr}"
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id in datetime_mods
                and value.attr in ("datetime", "date")
                and node.attr in _BANNED_DATETIME_ATTRS
            ):
                banned = f"datetime.{value.attr}.{node.attr}"
            if banned is not None:
                yield Violation(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=f"{banned} reads the host clock; simulation code "
                    "must derive all time from the kernel clock",
                    snippet=source.snippet(node.lineno),
                )
