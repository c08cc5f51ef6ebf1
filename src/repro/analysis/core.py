"""Reprolint core: violations, the rule registry, and pragmas.

Reprolint is a project-specific static checker built on the stdlib
``ast`` module.  It exists because this repo's central guarantees —
bit-identical trajectories from kernel-owned RNG streams, a package
DAG that keeps the simulation substrate FL-agnostic, a closed
event/drop-reason taxonomy, allocation-free hot paths — are invariants
of the *source*, and waiting for a runtime equivalence suite to catch
a stray ``np.random.rand`` is hours slower than catching it at lint
time.

Two kinds of rules exist:

* **file rules** see one :class:`~repro.analysis.project.SourceFile`
  at a time (determinism, hot-path hygiene, API surface);
* **project rules** see the whole
  :class:`~repro.analysis.project.Project` (layering/import cycles,
  trace-taxonomy exhaustiveness) — they cross-reference files.

Rule identifiers are ``R<family><index>`` (``R101``); the family digit
groups related checks (``R1`` determinism, ``R2`` layering, ``R3``
taxonomy, ``R4`` hot path, ``R5`` API surface).  A violation is
either fixed or, where the construct is intended, allowed in place
with ``# reprolint: allow[R101] why`` (see :func:`parse_pragmas`);
there is no other way to silence one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.project import Project, SourceFile

__all__ = [
    "LintResult",
    "Violation",
    "Rule",
    "FileRule",
    "ProjectRule",
    "RULE_REGISTRY",
    "register_rule",
    "iter_rules",
    "rule_catalogue",
    "parse_pragmas",
    "is_allowed",
    "ALLOW_PRAGMA",
]

# ``# reprolint: allow[R101]`` or ``allow[R1,R403]``; anything after the
# closing bracket is free-form justification.  ``allow[*]`` silences
# every rule on the line.
ALLOW_PRAGMA = re.compile(r"#\s*reprolint:\s*allow\[([A-Za-z0-9*,\s]+)\]")


@dataclass(frozen=True)
class Violation:
    """One rule breach at one source location."""

    rule: str
    path: str  # repo-relative posix path
    line: int  # 1-based
    message: str
    snippet: str = ""  # stripped source line, shown in the JSON report

    def render(self) -> str:
        """The canonical one-line text form ``path:line: RULE message``."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class Rule:
    """Base class: subclasses declare an id, a family, and a summary.

    Subclasses implement either :meth:`check_file` (file rules) or
    :meth:`check_project` (project rules) and are added to the global
    registry with :func:`register_rule`.
    """

    id: str = ""
    summary: str = ""
    scope: str = "file"  # "file" | "project"

    @property
    def family(self) -> str:
        """The family prefix, e.g. ``R1`` for ``R101``, ``R11`` for ``R1103``.

        Ids are ``R<family><index>`` with a two-digit index, so the
        family is everything but the last two characters — this keeps
        multi-digit families (``R10``, ``R11``) grouping correctly.
        """
        return self.id[:-2]

    def check_file(self, source: "SourceFile", project: "Project") -> Iterable[Violation]:
        """Yield violations found in one file (file rules only)."""
        raise NotImplementedError  # pragma: no cover - interface

    def check_project(self, project: "Project") -> Iterable[Violation]:
        """Yield violations found across files (project rules only)."""
        raise NotImplementedError  # pragma: no cover - interface


class FileRule(Rule):
    """Marker base for per-file rules."""

    scope = "file"


class ProjectRule(Rule):
    """Marker base for cross-file rules."""

    scope = "project"


RULE_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.id or not rule.id.startswith("R"):
        raise ValueError(f"rule {cls.__name__} has no valid id")
    if rule.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULE_REGISTRY[rule.id] = rule
    return cls


def iter_rules(select: Iterable[str] | None = None) -> Iterator[Rule]:
    """Registered rules, optionally filtered by id or family prefix.

    ``select`` entries may be full ids (``R101``) or family prefixes
    (``R1``); ``None`` selects everything.  A selector matching no
    registered rule raises ``ValueError`` — a typo'd ``--select`` must
    not silently lint with zero rules.
    """
    chosen = None if select is None else {s.strip() for s in select if s.strip()}
    if chosen is not None:
        known = set(RULE_REGISTRY) | {r.family for r in RULE_REGISTRY.values()}
        unknown = sorted(chosen - known)
        if unknown:
            raise ValueError(
                f"unknown rule selector(s): {', '.join(unknown)} "
                "(see `scripts/check_lint.py --rules`)"
            )
    for rule_id in sorted(RULE_REGISTRY):
        rule = RULE_REGISTRY[rule_id]
        if chosen is None or rule_id in chosen or rule.family in chosen:
            yield rule


def rule_catalogue() -> list[tuple[str, str]]:
    """(id, summary) for every registered rule, sorted by id."""
    return [(r.id, r.summary) for r in iter_rules()]


def parse_pragmas(lines: Iterable[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids allowed on them.

    A pragma on a code line covers that line; a pragma on a
    comment-only line covers the *next* line as well, so::

        # reprolint: allow[R403] scatter into a fresh buffer
        dense[idx] = values

    is suppressed.  Entries are ids (``R403``), families (``R4``), or
    ``*``.
    """
    allowed: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = ALLOW_PRAGMA.search(line)
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        allowed.setdefault(lineno, set()).update(ids)
        if line.lstrip().startswith("#"):  # comment-only line covers the next
            allowed.setdefault(lineno + 1, set()).update(ids)
    return {line: frozenset(ids) for line, ids in allowed.items()}


def is_allowed(pragmas: dict[int, frozenset[str]], line: int, rule_id: str) -> bool:
    """Whether a pragma on ``line`` silences ``rule_id``."""
    ids = pragmas.get(line)
    if not ids:
        return False
    return "*" in ids or rule_id in ids or rule_id[:-2] in ids


@dataclass
class LintResult:
    """Outcome of one lint pass (see :func:`repro.analysis.runner.run_lint`)."""

    violations: list[Violation] = field(default_factory=list)
    pragma_suppressed: int = 0
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no violation remains."""
        return not self.violations
