"""Project model: parsed source files and the cross-file import graph.

:class:`SourceFile` is one parsed module — AST, raw lines, pragma
table, and its dotted module name.  :class:`Project` is the set of
files one lint pass sees plus everything the project rules need to
cross-reference them: a module index and the intra-package import
graph (module-level and function-level imports recorded separately,
because lazy imports are a legitimate layering *deferral* but still a
layering *dependency*).

Module names are derived from the path relative to the source root
(``src/repro/sim/trace.py`` → ``repro.sim.trace``); snippet files
outside any package — the test fixtures — can be loaded with an
explicit module name via :meth:`SourceFile.from_path`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.config import LintConfig, default_config
from repro.analysis.core import parse_pragmas

__all__ = ["SourceFile", "ImportEdge", "Project", "LintError"]


class LintError(Exception):
    """Unrecoverable lint-pass failure (unreadable/unparsable input)."""


@dataclass(frozen=True)
class ImportEdge:
    """One import statement resolved to a target module."""

    target: str  # dotted module actually imported ("repro.fl.metrics")
    line: int
    toplevel: bool  # False for imports nested in a function/method
    names: tuple[str, ...] = ()  # names bound by ``from target import a, b``


@dataclass
class SourceFile:
    """One parsed Python source file."""

    path: Path
    rel: str  # repo-relative posix path used in reports
    module: str  # dotted module name ("repro.sim.trace")
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_path(
        cls, path: Path, module: str, rel: str | None = None
    ) -> "SourceFile":
        """Parse ``path`` as module ``module``; raises LintError on syntax errors."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"syntax error in {path}: {exc}") from exc
        return cls(
            path=path,
            rel=rel if rel is not None else path.as_posix(),
            module=module,
            text=text,
            tree=tree,
            lines=text.splitlines(),
            pragmas=parse_pragmas(text),
        )

    @property
    def package(self) -> str:
        """Second-level package key (``repro.sim.trace`` → ``sim``).

        Top-level modules (``repro.cli``, ``repro.__init__``) map to
        their own name; non-package snippets map to ``""``.
        """
        parts = self.module.split(".")
        if len(parts) < 2:
            return ""
        return parts[1]

    def snippet(self, line: int) -> str:
        """The stripped source text of a 1-based line (for reports)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def imports(self) -> Iterator[ImportEdge]:
        """Every import in the file, resolved to absolute module targets."""
        for node in ast.walk(self.tree):
            toplevel = getattr(node, "col_offset", 1) == 0
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield ImportEdge(alias.name, node.lineno, toplevel)
            elif isinstance(node, ast.ImportFrom):
                target = node.module or ""
                if node.level:  # resolve "from . import x" relative imports
                    base = self.module.split(".")
                    # level 1 from a module means its own package
                    anchor = base[: len(base) - node.level]
                    target = ".".join(anchor + ([target] if target else []))
                if target:
                    names = tuple(alias.name for alias in node.names)
                    yield ImportEdge(target, node.lineno, toplevel, names)


def _module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to source root ``root``."""
    rel = path.relative_to(root).with_suffix("")
    parts = list(rel.parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Project:
    """Everything one lint pass looks at."""

    def __init__(
        self,
        files: Iterable[SourceFile],
        repo_root: Path | None = None,
        config: LintConfig | None = None,
    ):
        self.files: list[SourceFile] = sorted(files, key=lambda f: f.rel)
        self.repo_root = repo_root
        self.config = config if config is not None else default_config()
        self.by_module: dict[str, SourceFile] = {f.module: f for f in self.files}

    @classmethod
    def load(
        cls,
        paths: Iterable[Path],
        src_root: Path,
        repo_root: Path | None = None,
        config: LintConfig | None = None,
    ) -> "Project":
        """Collect ``*.py`` under ``paths``; module names hang off ``src_root``.

        ``repo_root`` (default: parent of ``src_root``) anchors the
        repo-relative paths used in reports.
        """
        src_root = src_root.resolve()
        repo_root = (repo_root or src_root.parent).resolve()
        seen: set[Path] = set()
        files: list[SourceFile] = []
        for entry in paths:
            entry = Path(entry).resolve()
            candidates = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
            for path in candidates:
                if path in seen:
                    continue
                seen.add(path)
                try:
                    rel = path.relative_to(repo_root).as_posix()
                except ValueError:
                    rel = path.as_posix()
                module = (
                    _module_name(path, src_root)
                    if src_root in path.parents
                    else path.stem
                )
                files.append(SourceFile.from_path(path, module=module, rel=rel))
        return cls(files, repo_root=repo_root, config=config)

    def __len__(self) -> int:
        return len(self.files)

    def resolve(self, module: str) -> SourceFile | None:
        """The project file defining ``module``, if any (package inits too)."""
        return self.by_module.get(module)

    def internal_import_graph(
        self, package_root: str, toplevel_only: bool = False
    ) -> dict[str, list[tuple[str, ImportEdge, SourceFile]]]:
        """Module → imported project modules, restricted to ``package_root``.

        Import targets are normalised to a module present in the
        project: ``from repro.sim.trace import DROPPED`` maps to
        ``repro.sim.trace``; ``from repro.sim import SimKernel`` maps
        to the package ``__init__`` module ``repro.sim``.
        """
        prefix = package_root + "."
        graph: dict[str, list[tuple[str, ImportEdge, SourceFile]]] = {}
        for source in self.files:
            edges = graph.setdefault(source.module, [])
            for edge in source.imports():
                if edge.target != package_root and not edge.target.startswith(prefix):
                    continue
                if toplevel_only and not edge.toplevel:
                    continue
                # ``from pkg import name`` binds submodules when they
                # exist; the dependency is then on the submodule, not
                # on the package __init__ (else every sibling import
                # would fabricate a cycle through the package).
                targets = set()
                unresolved = not edge.names
                for name in edge.names:
                    sub = f"{edge.target}.{name}"
                    if sub in self.by_module:
                        targets.add(sub)
                    else:
                        unresolved = True
                if unresolved:
                    targets.add(edge.target)
                for target in sorted(targets):
                    if target in self.by_module and target != source.module:
                        edges.append((target, edge, source))
        return graph
