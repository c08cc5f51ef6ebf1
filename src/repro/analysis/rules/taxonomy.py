"""R3: the drop-reason taxonomy is closed and fully consumed.

:mod:`repro.sim.trace` declares the drop-reason set (``DROP_REASONS``)
partitioned into counted / rejected / uncounted buckets.  Everything
downstream — ``MetricsReducer``, the trace summariser, the chaos
report — keys off those declarations, so an emit site inventing a
reason, or a declared reason missing from every accounting bucket,
corrupts the drop counts silently.  These rules re-derive the
taxonomy from the AST of the declaring module and cross-check every
emit site and consumer in the project:

* **R302** — ``reason="..."`` keyword with an undeclared drop reason;
* **R303** — the declared partition is broken: counted / rejected /
  uncounted buckets must be disjoint and cover ``DROP_REASONS``
  exactly (and ``DROP_REASONS`` must be duplicate-free);
* **R304** — a known consumer module no longer references the
  taxonomy names it must dispatch on.

An undeclared event *type* needs no rule: ``EventTrace.emit`` raises
on it at run time, and the engine tests drive every emit site.

Emit sites are recognised syntactically: a call ``<recv>.emit(...)``
where the receiver is (an attribute ending in) ``trace`` or
``_trace`` — the convention every engine and the kernel follow.
Dynamic reasons (``reason=reason``) are outside static reach and are
deliberately skipped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.core import ProjectRule, Violation, register_rule
from repro.analysis.project import Project, SourceFile

__all__ = [
    "Taxonomy",
    "extract_taxonomy",
    "iter_emit_calls",
    "DropReasonRule",
    "TaxonomyPartitionRule",
    "TaxonomyConsumerRule",
]

_PARTITION_NAMES = (
    "COUNTED_DROP_REASONS",
    "REJECTED_DROP_REASONS",
    "UNCOUNTED_DROP_REASONS",
)


@dataclass
class Taxonomy:
    """The declared vocabulary, re-derived statically from the AST."""

    module: str
    drop_reasons: tuple[str, ...] = ()
    partitions: dict[str, frozenset[str]] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)  # NAME -> value
    lines: dict[str, int] = field(default_factory=dict)  # decl name -> line

    @property
    def complete(self) -> bool:
        """Whether the declaring module yielded the drop-reason set."""
        return bool(self.drop_reasons)


def _literal_strings(node: ast.expr, constants: dict[str, str]) -> list[str] | None:
    """Resolve a tuple/set/frozenset literal of strings and known names."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("frozenset", "set", "tuple") and len(node.args) == 1:
            return _literal_strings(node.args[0], constants)
        return None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out: list[str] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
            elif isinstance(element, ast.Name) and element.id in constants:
                out.append(constants[element.id])
            else:
                return None
        return out
    return None


def extract_taxonomy(source: SourceFile) -> Taxonomy:
    """Parse the taxonomy declarations out of the declaring module."""
    taxonomy = Taxonomy(module=source.module)
    for node in source.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        name = target.id
        if (
            isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and name.isupper()
        ):
            taxonomy.constants[name] = node.value.value
            taxonomy.lines[name] = node.lineno
            continue
        values = _literal_strings(node.value, taxonomy.constants)
        if values is None:
            continue
        taxonomy.lines[name] = node.lineno
        if name == "DROP_REASONS":
            taxonomy.drop_reasons = tuple(values)
        elif name in _PARTITION_NAMES:
            taxonomy.partitions[name] = frozenset(values)
    return taxonomy


def _project_taxonomy(project: Project) -> tuple[Taxonomy, SourceFile] | None:
    source = project.resolve(project.config.taxonomy_module)
    if source is None:
        return None
    taxonomy = extract_taxonomy(source)
    return (taxonomy, source) if taxonomy.complete else None


def _is_trace_receiver(func: ast.expr) -> bool:
    """``x.emit`` where x syntactically looks like a trace bus."""
    if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
        return False
    recv = func.value
    name = None
    if isinstance(recv, ast.Name):
        name = recv.id
    elif isinstance(recv, ast.Attribute):
        name = recv.attr
    return name is not None and (name == "trace" or name.endswith("_trace"))


def iter_emit_calls(source: SourceFile) -> Iterator[ast.Call]:
    """All syntactic trace-bus emit calls in one file."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call) and _is_trace_receiver(node.func):
            yield node


@register_rule
class DropReasonRule(ProjectRule):
    """R302: every emitted drop reason is declared."""

    id = "R302"
    summary = "trace.emit with a drop reason not declared in the taxonomy"

    def check_project(self, project: Project) -> Iterator[Violation]:
        resolved = _project_taxonomy(project)
        if resolved is None:
            return
        taxonomy, decl = resolved
        declared = set(taxonomy.drop_reasons)
        for source in project.files:
            if source is decl:
                continue
            for call in iter_emit_calls(source):
                for keyword in call.keywords:
                    if keyword.arg != "reason":
                        continue
                    value = keyword.value
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, str
                    ):
                        if value.value not in declared:
                            yield Violation(
                                rule=self.id,
                                path=source.rel,
                                line=call.lineno,
                                message=f"drop reason {value.value!r} is not "
                                f"declared in {taxonomy.module}.DROP_REASONS",
                                snippet=source.snippet(call.lineno),
                            )


@register_rule
class TaxonomyPartitionRule(ProjectRule):
    """R303: counted/rejected/uncounted partition DROP_REASONS exactly."""

    id = "R303"
    summary = "drop-reason partition is not a disjoint, exhaustive cover"

    def check_project(self, project: Project) -> Iterator[Violation]:
        resolved = _project_taxonomy(project)
        if resolved is None:
            return
        taxonomy, decl = resolved
        line = taxonomy.lines.get("DROP_REASONS", 1)

        def _violation(message: str) -> Violation:
            return Violation(
                rule=self.id,
                path=decl.rel,
                line=line,
                message=message,
                snippet=decl.snippet(line),
            )

        declared = set(taxonomy.drop_reasons)
        if len(declared) != len(taxonomy.drop_reasons):
            dupes = sorted(
                r
                for r in declared
                if taxonomy.drop_reasons.count(r) > 1
            )
            yield _violation(f"DROP_REASONS contains duplicates: {dupes}")
        missing_buckets = [
            name for name in _PARTITION_NAMES if name not in taxonomy.partitions
        ]
        if missing_buckets:
            yield _violation(
                "missing partition bucket(s): " + ", ".join(missing_buckets)
            )
            return
        buckets = [taxonomy.partitions[name] for name in _PARTITION_NAMES]
        for i, left_name in enumerate(_PARTITION_NAMES):
            for right_name in _PARTITION_NAMES[i + 1 :]:
                overlap = taxonomy.partitions[left_name] & taxonomy.partitions[
                    right_name
                ]
                if overlap:
                    yield _violation(
                        f"{left_name} and {right_name} overlap: {sorted(overlap)}"
                    )
        union = frozenset().union(*buckets)
        unhandled = declared - union
        if unhandled:
            yield _violation(
                f"drop reasons in no accounting bucket: {sorted(unhandled)} "
                "(add to COUNTED/REJECTED/UNCOUNTED_DROP_REASONS)"
            )
        undeclared = union - declared
        if undeclared:
            yield _violation(
                f"partition names not in DROP_REASONS: {sorted(undeclared)}"
            )


@register_rule
class TaxonomyConsumerRule(ProjectRule):
    """R304: known consumers still reference the names they dispatch on."""

    id = "R304"
    summary = "taxonomy consumer no longer references a required name"

    def check_project(self, project: Project) -> Iterator[Violation]:
        resolved = _project_taxonomy(project)
        if resolved is None:
            return
        taxonomy, _ = resolved
        for module, required in sorted(project.config.taxonomy_consumers.items()):
            source = project.resolve(module)
            if source is None:
                continue  # partial lint run: consumer not in scope
            used = {
                node.id
                for node in ast.walk(source.tree)
                if isinstance(node, ast.Name)
            }
            for name in required:
                if name not in used:
                    yield Violation(
                        rule=self.id,
                        path=source.rel,
                        line=1,
                        message=f"consumer of the trace taxonomy must "
                        f"reference {taxonomy.module}.{name}",
                        snippet=source.snippet(1),
                    )
