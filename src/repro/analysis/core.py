"""Reprolint core: violations, the rule registry, and pragmas.

Reprolint is a project-specific static checker built on the stdlib
``ast`` module.  It holds the invariants of the *source* that no
runtime test can see: a wall-clock read that moves nothing yet, an
import that breaks the package DAG on a tree that then cannot import,
a drop reason no accounting bucket holds, code nothing reaches.

Two kinds of rules exist:

* **file rules** see one :class:`~repro.analysis.project.SourceFile`
  at a time (wall clock);
* **project rules** see the whole
  :class:`~repro.analysis.project.Project` (layering/import cycles,
  taxonomy, reachability) — they cross-reference files.

Rule identifiers are ``R<family><index>`` (``R103``, ``R506``); the
family is everything but the last two digits.  A violation is either
fixed or, where the construct is intended, allowed in place with a
``reprolint: allow[R103] why`` comment (see :func:`parse_pragmas`);
there is no other way to silence one, and a pragma naming no rule
fails the pass.
"""

from __future__ import annotations

import io
import re
import tokenize
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
    "unknown_pragma_ids",
    "ALLOW_PRAGMA",
]

# A comment that starts ``reprolint: allow[R103]`` or ``allow[R1,R506]``;
# anything after the closing bracket is free-form justification.
# ``allow[*]`` silences every rule on the line.
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
        """The family prefix, e.g. ``R1`` for ``R103``, ``R5`` for ``R506``.

        Ids are ``R<family><index>`` with a two-digit index, so the
        family is everything but the last two characters — a
        multi-digit family (``R12`` for ``R1201``) groups correctly.
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


def parse_pragmas(text: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids allowed on them.

    Only comment tokens count: the pattern inside a string or a
    docstring is not a pragma.  A pragma on a code line covers that
    line; a pragma on a comment-only line covers the *next* line as
    well, so a comment line ``reprolint: allow[R506] why`` above a
    definition covers the definition.  Entries are ids (``R506``),
    families (``R5``), or ``*``; :func:`unknown_pragma_ids` checks
    them against the registry.
    """
    allowed: dict[int, set[str]] = {}
    if "reprolint" not in text:  # skip tokenizing the files with no pragma
        return {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = ALLOW_PRAGMA.match(token.string)
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        lineno, col = token.start
        allowed.setdefault(lineno, set()).update(ids)
        if not token.line[:col].strip():  # comment-only line covers the next
            allowed.setdefault(lineno + 1, set()).update(ids)
    return {line: frozenset(ids) for line, ids in allowed.items()}


def is_allowed(pragmas: dict[int, frozenset[str]], line: int, rule_id: str) -> bool:
    """Whether a pragma on ``line`` silences ``rule_id``."""
    ids = pragmas.get(line)
    if not ids:
        return False
    return "*" in ids or rule_id in ids or rule_id[:-2] in ids


def unknown_pragma_ids(pragmas: dict[int, frozenset[str]]) -> list[tuple[int, str]]:
    """``(line, id)`` for each pragma entry naming no registered rule or family.

    A pragma for a deleted rule, or a typo such as ``allow[R5O6]``,
    would silence nothing and never be flagged; the lint pass fails
    on it instead.
    """
    known = set(RULE_REGISTRY) | {r.family for r in RULE_REGISTRY.values()} | {"*"}
    return sorted(
        (line, rule_id)
        for line, ids in pragmas.items()
        for rule_id in ids - known
    )


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
