"""R6: byte accounting goes through the wire layer.

The analytic size formulas (``dense_bytes`` / ``sparse_payload_bytes``
/ ``quantized_bytes``) are *predictions*, pinned by a tier-1 test to
the exact frame-encode lengths in :mod:`repro.wire.codecs`.  Code that
calls a formula directly to charge a link or stamp a payload bypasses
the frames — its number can silently drift from what actually travels.
Since the wire refactor, every producer obtains sizes from an encoded
:class:`~repro.wire.frame.Frame` (or from
:func:`repro.wire.codecs.predicted_payload_nbytes`, which *is* the
codec's size model); the formulas themselves remain public for
analysis and cross-checking tests.

* **R601** — a call to one of the size formulas outside the modules
  allowed to define or read them (``repro.wire`` and
  ``repro.compression.base``).  Move the computation behind a
  frame encode, or consume ``Frame.payload_nbytes``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileRule, Violation, register_rule
from repro.analysis.project import Project, SourceFile

__all__ = ["SizeFormulaCallRule", "SIZE_FORMULAS"]

SIZE_FORMULAS = frozenset(
    {"dense_bytes", "sparse_payload_bytes", "quantized_bytes"}
)


def _called_name(node: ast.Call) -> str | None:
    """The terminal name of the callee: ``f(...)`` or ``mod.f(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _module_allowed(module: str, allowed: tuple[str, ...]) -> bool:
    return any(module == m or module.startswith(m + ".") for m in allowed)


@register_rule
class SizeFormulaCallRule(FileRule):
    """R601: size-formula calls only inside the wire layer."""

    id = "R601"
    summary = "analytic byte-size formula called outside the wire layer"

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterator[Violation]:
        if _module_allowed(source.module, project.config.size_formula_modules):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name not in SIZE_FORMULAS:
                continue
            yield Violation(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=f"{name}() outside the wire layer; byte accounting "
                "must come from an encoded Frame (payload_nbytes) or "
                "repro.wire.codecs.predicted_payload_nbytes",
                snippet=source.snippet(node.lineno),
            )
