"""Incremental lint: ``repro lint --diff <git-ref>``.

Full repo-wide lint is cheap enough for CI but not for an edit loop;
this module narrows a pass to what a change can actually affect:

* the ``*.py`` files changed since a git ref (``git diff --name-only``),
* plus their transitive in-package importers — a changed module can
  break layering, taxonomy, or API invariants *in the files importing
  it*, so importers re-lint too;

and it keeps a content-hash parse cache so re-lints of a mostly
unchanged tree skip re-parsing (the dominant cost of a lint pass).
Project-scope rules still see the full project — cross-file
invariants are global — but findings are reported only for the
affected set, and baseline entries outside it are ignored rather than
reported stale.
"""

from __future__ import annotations

import ast
import hashlib
import subprocess  # reprolint: allow[R801] - drives git, not a transport
from pathlib import Path

from repro.analysis.baseline import load_baseline
from repro.analysis.config import (
    LintConfig,
    default_config,
    default_lint_paths,
    default_src_root,
)
from repro.analysis.core import LintResult, parse_pragmas
from repro.analysis.project import LintError, Project, SourceFile
from repro.analysis.runner import lint_project

__all__ = [
    "affected_rels",
    "changed_rels",
    "lint_diff",
    "load_project_cached",
    "parse_cache_stats",
]

_PARSE_CACHE: dict[tuple[str, str], SourceFile] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


# reprolint: allow[R506] the counter tests/analysis/test_incremental.py reads to prove a cache hit
def parse_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the content-hash parse cache (for tests)."""
    return dict(_CACHE_STATS)


def _cached_source(path: Path, module: str, rel: str) -> SourceFile:
    """``SourceFile.from_path`` with a (rel, content-hash) memo."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    key = (rel, digest)
    cached = _PARSE_CACHE.get(key)
    if cached is not None and cached.module == module:
        _CACHE_STATS["hits"] += 1
        return cached
    _CACHE_STATS["misses"] += 1
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"syntax error in {path}: {exc}") from exc
    lines = text.splitlines()
    source = SourceFile(
        path=path,
        rel=rel,
        module=module,
        text=text,
        tree=tree,
        lines=lines,
        pragmas=parse_pragmas(lines),
    )
    _PARSE_CACHE[key] = source
    return source


def load_project_cached(
    paths: list[Path],
    src_root: Path,
    repo_root: Path | None = None,
    config: LintConfig | None = None,
) -> Project:
    """:meth:`Project.load` through the content-hash parse cache."""
    return Project.load(
        paths,
        src_root=src_root,
        repo_root=repo_root,
        config=config,
        loader=_cached_source,
    )


def changed_rels(ref: str, repo_root: Path) -> set[str]:
    """Repo-relative ``*.py`` paths changed since ``ref``.

    Includes uncommitted working-tree changes (plain ``git diff``
    semantics) — exactly what an edit loop wants to re-lint.
    """
    proc = subprocess.run(
        ["git", "diff", "--name-only", ref, "--", "*.py"],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise LintError(
            f"git diff {ref!r} failed: {proc.stderr.strip() or 'unknown error'}"
        )
    return {line.strip() for line in proc.stdout.splitlines() if line.strip()}


def affected_rels(project: Project, changed: set[str]) -> set[str]:
    """``changed`` plus the rels of their transitive in-package importers."""
    graph = project.internal_import_graph(project.config.package)
    importers: dict[str, set[str]] = {}
    for edges in graph.values():
        for target, _edge, source in edges:
            importers.setdefault(target, set()).add(source.rel)
    rel_to_module = {f.rel: f.module for f in project.files}
    affected = {rel for rel in changed if rel in rel_to_module}
    frontier = [rel_to_module[rel] for rel in affected]
    while frontier:
        module = frontier.pop()
        for rel in importers.get(module, ()):
            if rel not in affected:
                affected.add(rel)
                frontier.append(rel_to_module[rel])
    return affected


def lint_diff(
    ref: str,
    paths: list[Path] | None = None,
    src_root: Path | None = None,
    config: LintConfig | None = None,
    select: list[str] | None = None,
    baseline_path: Path | None = None,
) -> LintResult:
    """Lint only what changed since ``ref`` (plus importers)."""
    config = config if config is not None else default_config()
    src_root = src_root if src_root is not None else default_src_root()
    repo_root = src_root.parent
    project = load_project_cached(
        paths if paths is not None else default_lint_paths(),
        src_root=src_root,
        repo_root=repo_root,
        config=config,
    )
    only = affected_rels(project, changed_rels(ref, repo_root))
    entries = load_baseline(baseline_path) if baseline_path is not None else []
    entries = [e for e in entries if e.get("path") in only]
    return lint_project(
        project, select=select, baseline_entries=entries, only_paths=only
    )
