"""R2: layering — the package DAG stays a DAG.

``repro.sim`` is deliberately FL-agnostic, the numeric substrate
(``nn``/``compression``/``data``) knows nothing about federation.
The allowed dependency table lives in
:data:`repro.analysis.config.ALLOWED_DEPS`.

* **R201** — a package imports one it may not depend on (checked for
  *all* imports, including function-local ones: deferring an import
  hides the cost, not the dependency);
* **R202** — a module-level import cycle inside the root package
  (strongly connected components of the top-level import graph;
  function-local imports are exempt because deferral is the sanctioned
  way to break a would-be cycle).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import ProjectRule, Violation, register_rule
from repro.analysis.project import Project

__all__ = ["PackageDagRule", "ImportCycleRule"]


def _package_of(module: str, root: str) -> str | None:
    """Second-level package of ``module`` under ``root`` (None if outside)."""
    parts = module.split(".")
    if parts[0] != root:
        return None
    return parts[1] if len(parts) > 1 else ""


@register_rule
class PackageDagRule(ProjectRule):
    """R201: only DAG-sanctioned cross-package imports."""

    id = "R201"
    summary = "cross-package import not in the allowed dependency DAG"

    def check_project(self, project: Project) -> Iterator[Violation]:
        config = project.config
        root = config.package
        for source in project.files:
            src_pkg = _package_of(source.module, root)
            if src_pkg is None or src_pkg == "":
                # Top-level modules (repro.cli, repro.__init__) and
                # out-of-package snippets may import anything.
                continue
            allowed = config.allowed_deps.get(src_pkg)
            if allowed is None:
                continue  # unknown package: DAG does not constrain it
            for edge in source.imports():
                dst_pkg = _package_of(edge.target, root)
                if dst_pkg in (None, "", src_pkg):
                    continue
                if dst_pkg not in allowed:
                    yield Violation(
                        rule=self.id,
                        path=source.rel,
                        line=edge.line,
                        message=f"package '{src_pkg}' must not import "
                        f"'{root}.{dst_pkg}' (allowed: "
                        f"{', '.join(sorted(allowed)) or 'none'})",
                        snippet=source.snippet(edge.line),
                    )


@register_rule
class ImportCycleRule(ProjectRule):
    """R202: no module-level import cycles."""

    id = "R202"
    summary = "module-level import cycle"

    def check_project(self, project: Project) -> Iterator[Violation]:
        root = project.config.package
        graph = project.internal_import_graph(root, toplevel_only=True)
        adjacency = {
            module: sorted({target for target, _, _ in edges})
            for module, edges in graph.items()
        }
        for cycle in _find_cycles(adjacency):
            head = cycle[0]
            source = project.by_module[head]
            # Report once, anchored on the first import edge that
            # participates in the cycle.
            nxt = cycle[1] if len(cycle) > 1 else cycle[0]
            line = next(
                (e.line for t, e, _ in graph.get(head, []) if t == nxt), 1
            )
            yield Violation(
                rule=self.id,
                path=source.rel,
                line=line,
                message="import cycle: " + " -> ".join(cycle + [head]),
                snippet=source.snippet(line),
            )


def _cycle_path(component: list[str], adjacency: dict[str, list[str]]) -> list[str]:
    """An actual edge path realising the SCC's cycle, starting at its
    lexicographically smallest member (BFS: shortest such cycle)."""
    members = set(component)
    start = min(component)
    parents: dict[str, str] = {}
    frontier = [start]
    while frontier:
        nxt: list[str] = []
        for node in frontier:
            for child in adjacency.get(node, ()):
                if child == start:
                    path = [node]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                if child in members and child not in parents:
                    parents[child] = node
                    nxt.append(child)
        frontier = nxt
    return [start]  # self-loop


def _find_cycles(adjacency: dict[str, list[str]]) -> list[list[str]]:
    """Elementary cycles via SCC: one realised cycle per non-trivial SCC.

    Iterative Tarjan keeps the pass dependency-free and safe on deep
    graphs; each SCC is rendered as a genuine edge path found by
    :func:`_cycle_path`, making output deterministic and verifiable.
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    for start in sorted(adjacency):
        if start in index:
            continue
        work = [(start, iter(adjacency.get(start, ())))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack[start] = True
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(adjacency.get(child, ()))))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in adjacency.get(node, ()):
                    sccs.append(_cycle_path(component, adjacency))
    return sorted(sccs)
