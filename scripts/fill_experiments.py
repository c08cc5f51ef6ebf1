#!/usr/bin/env python
"""Splice measured paper artifacts into EXPERIMENTS.md.

Each ``<!-- MEASURED:name -->`` marker is replaced by a fenced block
holding ``benchmarks/results/name.txt``, which ``pytest
benchmarks/bench_paper.py`` writes for every artifact of its registry.
A marker naming no registered artifact is an error: the script exits 2
naming it and writes nothing.  A missing result leaves a gap and exits 1.

    python scripts/fill_experiments.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
DOC = ROOT / "EXPERIMENTS.md"

_BLOCK = re.compile(r"<!-- MEASURED:(\w+) -->(?:\n```text\n.*?\n```)?", re.DOTALL)


def artifact_names() -> set[str]:
    """The names ``benchmarks/bench_paper.py`` registers."""
    sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]
    from bench_paper import ARTIFACTS

    return set(ARTIFACTS)


def main(doc: Path = DOC, results: Path = RESULTS) -> int:
    text = doc.read_text()
    markers = _BLOCK.findall(text)
    unknown = sorted(set(markers) - artifact_names())
    if unknown:
        print(f"unknown MEASURED marker(s) in {doc.name}: {', '.join(unknown)}", file=sys.stderr)
        return 2
    missing = [name for name in markers if not (results / f"{name}.txt").exists()]

    def block(match: re.Match) -> str:
        path = results / f"{match.group(1)}.txt"
        body = path.read_text().rstrip() if path.exists() else (
            f"({path.name}: not yet measured — run the benchmarks)")
        return f"<!-- MEASURED:{match.group(1)} -->\n```text\n{body}\n```"

    doc.write_text(_BLOCK.sub(block, text))
    if missing:
        print(f"filled with gaps; missing artifacts for: {', '.join(missing)}")
        return 1
    print(f"{doc.name} updated from {results}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
