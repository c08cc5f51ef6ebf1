"""R506: reachability — the package holds no code for traffic nobody sends.

The rule walks the project import graph from the places work enters
the program (:attr:`~repro.analysis.config.LintConfig.reach_roots`:
entry-point modules, the scripts under ``benchmarks/`` ``examples/``
``scripts/``, and fenced ``python`` blocks in the docs) and reports

* a **module** no root reaches, and
* an ``__all__`` **name** of a reached module that nothing reached
  uses — not imported by name, not read as an attribute (or named in
  a string, the way a patch table does) by a file that holds the
  module, not referenced by the module's own code, and not handed to
  a project decorator (``@register_rule`` registers the class).

A package ``__init__`` is plumbing: ``from pkg import Name`` resolves
through its re-export to the module that defines ``Name``, and the
re-export itself makes nothing reached — only an ``__init__`` that
imports a *submodule* (``from pkg.rules import api``, the registry
idiom) passes reach on.  It is never reported itself.  Tests are not roots: a module only tests
import is either deleted with them or kept with a written reason,
``# reprolint: allow[R506] why`` on the line above its ``__all__``
(for a name: above its definition).  A module kept that way passes
nothing on; what only it needs carries its own reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from repro.analysis.core import ProjectRule, Violation, register_rule
from repro.analysis.project import LintError, Project, SourceFile
from repro.analysis.rules.api import _declared_all

__all__ = ["ReachabilityRule"]

_FENCE = re.compile(r"^```python[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _root_files(project: Project) -> list[SourceFile]:
    """The configured roots as parsed files (project modules reused)."""
    roots: list[SourceFile] = []
    for entry in project.config.reach_roots:
        if entry in project.by_module:
            roots.append(project.by_module[entry])
        elif project.repo_root is not None:
            for path in sorted(project.repo_root.glob(entry)):
                rel = path.relative_to(project.repo_root).as_posix()
                if path.suffix == ".py":
                    roots.append(SourceFile.from_path(path, module=path.stem, rel=rel))
                else:
                    roots.extend(_fenced_blocks(path, rel))
    return roots


def _fenced_blocks(path: Path, rel: str) -> Iterator[SourceFile]:
    """Each ``python`` fence of a markdown file that parses, as a file."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    for block in _FENCE.findall(text):
        try:
            tree = ast.parse(block)
        except SyntaxError:
            continue  # an excerpt, not a program
        yield SourceFile(path=path, rel=rel, module=path.stem, text=block, tree=tree)


def _mentions(source: SourceFile, strings: bool) -> set[str]:
    """Attribute names read anywhere in the file; with ``strings``, the
    string constants too (a script's patch table names its targets)."""
    found: set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
            # A patch table names ``Class.method``; the class is the export.
            found.add(node.value.partition(".")[0])
    return found


class _Reach:
    """One walk: which modules, and which of their names, are reached."""

    def __init__(self, project: Project):
        self.by_module = project.by_module
        # A module other modules hang under is a package ``__init__``.
        self.packages = {m.rpartition(".")[0] for m in self.by_module}
        self.modules: set[str] = set()
        self.names: dict[str, set[str]] = {}
        self._pending: list[SourceFile] = []
        self._bindings: dict[str, dict[str, str]] = {}

    def run(self, roots: list[SourceFile]) -> None:
        self._pending.extend(roots)
        self.modules.update(r.module for r in roots if self.by_module.get(r.module) is r)
        while self._pending:
            self._scan(self._pending.pop())

    def _enter(self, module: str) -> None:
        if module not in self.modules:
            self.modules.add(module)
            self._pending.append(self.by_module[module])

    def _imported_from(self, module: str) -> dict[str, str]:
        """Name -> project module a top-level ``from m import name`` takes it from."""
        found = self._bindings.get(module)
        if found is None:
            found = self._bindings[module] = {
                name: edge.target
                for edge in self.by_module[module].imports()
                if edge.toplevel and edge.target in self.by_module
                for name in edge.names
            }
        return found

    def _use(self, module: str, name: str) -> None:
        """``from module import name``, followed through re-exports."""
        while name not in self.names.setdefault(module, set()):
            self._enter(module)
            self.names[module].add(name)
            origin = self._imported_from(module).get(name)
            if origin is None:
                return
            if f"{origin}.{name}" in self.by_module:  # a submodule, not a name
                self._enter(f"{origin}.{name}")
                return
            module = origin

    def _scan(self, source: SourceFile) -> None:
        by_module = self.by_module
        inside = by_module.get(source.module) is source
        init = inside and source.module in self.packages
        held: set[str] = set()  # modules this file holds as objects
        for edge in source.imports():
            if edge.target not in by_module:
                continue
            if not edge.names:
                held.add(edge.target)
            for name in edge.names:
                if f"{edge.target}.{name}" in by_module:
                    held.add(f"{edge.target}.{name}")
                elif not init:  # an __init__'s re-export reaches nothing
                    self._use(edge.target, name)
        mentions = _mentions(source, strings=not inside)
        held.update(m for m in mentions if m in by_module)
        for module in held:
            self._enter(module)
            for name in mentions & set(_declared_all(by_module[module].tree)[0] or ()):
                self._use(module, name)


def _own_references(source: SourceFile) -> set[str]:
    """Names the module's own code reads, and those a project decorator takes."""
    imported = {
        name
        for edge in source.imports()
        if edge.target.split(".")[0] == source.module.split(".")[0]
        for name in edge.names
    }
    found = {
        node.id
        for node in ast.walk(source.tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in source.tree.body:
        for decorator in getattr(node, "decorator_list", ()):
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Name) and target.id in imported:
                found.add(node.name)
    return found


def _definition_line(source: SourceFile, name: str, default: int) -> int:
    for node in source.tree.body:
        if getattr(node, "name", None) == name:
            return node.lineno
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.lineno
    return default


@register_rule
class ReachabilityRule(ProjectRule):
    """R506: every module and ``__all__`` name is reached from a root."""

    id = "R506"
    summary = "module or __all__ name that no entry point reaches"

    def check_project(self, project: Project) -> Iterator[Violation]:
        roots = _root_files(project)
        entry_points = {r.module for r in roots if project.by_module.get(r.module) is r}
        if not entry_points:
            return  # the project holds no entry point to walk from
        reach = _Reach(project)
        reach.run(roots)
        prefix = project.config.package + "."
        for source in project.files:
            if not source.module.startswith(prefix) or source.module in reach.packages:
                continue
            entries, all_line = _declared_all(source.tree)
            if source.module not in reach.modules:
                found = [(all_line or 1, f"module '{source.module}' is reached from no entry point")]
            elif source.module in entry_points:
                continue  # an entry point's exports are how it is entered
            else:
                used = reach.names.get(source.module, set()) | _own_references(source)
                found = [
                    (
                        _definition_line(source, name, all_line),
                        f"'{name}' is exported but nothing an entry point reaches uses it",
                    )
                    for name in sorted(set(entries or ()) - used)
                ]
            for line, what in found:
                yield Violation(
                    rule=self.id,
                    path=source.rel,
                    line=line,
                    message=what + "; delete it or give the reason it stays",
                    snippet=source.snippet(line),
                )
