#!/usr/bin/env python
"""reprolint, the repo's static invariant checker, and its CI gate.

Runs every rule family over the ``repro`` package (or the given
paths) and exits with the linter's stable exit code, so CI can gate
on static invariants the same way ``check_bench.py`` gates on perf:

* ``0`` — clean: no violations;
* ``1`` — violations;
* ``2`` — the lint pass itself failed (unparsable file, unknown rule
  selector, a pragma naming no rule).

Usage::

    python scripts/check_lint.py                           # gate
    python scripts/check_lint.py src/repro/sim --select R3 # one dir, one family
    python scripts/check_lint.py --json                    # machine-readable
    python scripts/check_lint.py --rules                   # rule catalogue

The script imports only :mod:`repro.analysis`, which is stdlib-only
and parses the code it checks without importing it, so the gate
still reports R201/R202 on a tree whose imports are broken.  An
intended violation is allowed in place with
``# reprolint: allow[RULE] why``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import (  # noqa: E402 - after sys.path bootstrap
    default_lint_paths,
    default_src_root,
    exit_code,
    render_catalogue,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.runner import EXIT_CLEAN, EXIT_ERROR  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids or families, e.g. R2,R506 (default: all)",
    )
    parser.add_argument(
        "--rules", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)

    if args.rules:
        print(render_catalogue())
        return EXIT_CLEAN
    paths = [Path(p) for p in args.paths] or default_lint_paths()
    select = args.select.split(",") if args.select else None
    try:
        result = run_lint(paths, src_root=default_src_root(), select=select)
    except Exception as exc:  # unreadable input / unknown selector
        print(f"lint error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    print(render_json(result) if args.json else render_text(result))
    return exit_code(result)


if __name__ == "__main__":
    raise SystemExit(main())
