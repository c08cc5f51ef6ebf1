"""Reporters: human text and machine JSON for a lint result.

The text form groups violations by file and ends with a one-line
verdict; the JSON form is stable and sorted (suitable for diffing and
for the ``check_lint`` CI gate) and carries the per-rule violation
counts alongside the violations.
"""

from __future__ import annotations

import json

from repro.analysis.core import LintResult, rule_catalogue

__all__ = ["render_text", "render_json", "render_catalogue"]


def render_text(result: LintResult) -> str:
    """The ``scripts/check_lint.py`` terminal report."""
    lines: list[str] = []
    current = None
    for violation in result.violations:
        if violation.path != current:
            if current is not None:
                lines.append("")
            current = violation.path
        lines.append(violation.render())
    if lines:
        lines.append("")
    lines.append(
        f"{len(result.violations)} violation(s) in {result.files_checked} file(s)"
        f" [{len(result.rules_run)} rules"
        f", {result.pragma_suppressed} pragma-allowed]"
    )
    lines.append("lint: " + ("clean" if result.clean else "FAILED"))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Stable machine-readable report (``scripts/check_lint.py --json``)."""
    payload = {
        "schema": 1,
        "clean": result.clean,
        "files_checked": result.files_checked,
        "rules_run": result.rules_run,
        "pragma_suppressed": result.pragma_suppressed,
        "violations": [
            {
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "message": v.message,
                "snippet": v.snippet,
            }
            for v in result.violations
        ],
        "metrics": result.metrics,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_catalogue() -> str:
    """The rule catalogue (``scripts/check_lint.py --rules``)."""
    lines = ["reprolint rule catalogue", ""]
    family = None
    for rule_id, summary in rule_catalogue():
        if rule_id[:-2] != family:
            family = rule_id[:-2]
            lines.append(f"{family}xx:")
        lines.append(f"  {rule_id}  {summary}")
    return "\n".join(lines)
