#!/usr/bin/env python
"""Regression gate over the hot-path microbenchmark suite.

Runs ``benchmarks/bench_hotpath.py`` and compares every timed section
against the committed ``BENCH_hotpath.json`` baseline at the repo
root.  Exits non-zero if any section's best (min) per-iteration time
regressed by more than ``--threshold`` (default 25%), so CI can gate
perf the same way it gates correctness.

Usage::

    PYTHONPATH=src python scripts/check_bench.py            # compare
    PYTHONPATH=src python scripts/check_bench.py --update   # refresh baseline
    PYTHONPATH=src python scripts/check_bench.py --update --section population

``--section NAME`` (repeatable) runs only the named sections.  With
``--update`` it rewrites just those entries of the baseline and leaves
every other section's anchor byte-for-byte as committed, so one
measured change cannot re-baseline the drift of twelve others.

The comparison uses ``min_s`` because the per-iteration minimum is the
most noise-robust statistic on a shared machine.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_hotpath.json"
DEFAULT_THRESHOLD = 0.25


def _load_suite():
    """Import benchmarks/bench_hotpath.py (benchmarks/ is not a package)."""
    path = REPO_ROOT / "benchmarks" / "bench_hotpath.py"
    spec = importlib.util.spec_from_file_location("bench_hotpath", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(baseline: dict, fresh: dict, threshold: float) -> list[str]:
    """Human-readable regression report; empty means no regressions."""
    failures: list[str] = []
    base_sections = baseline.get("sections", {})
    for name, stats in fresh["sections"].items():
        base = base_sections.get(name)
        if base is None:
            print(f"  {name:>16}: new section (no baseline), "
                  f"min {stats['min_s'] * 1e3:.3f} ms")
            continue
        ratio = stats["min_s"] / base["min_s"]
        marker = "OK "
        if ratio > 1.0 + threshold:
            marker = "REG"
            failures.append(
                f"{name}: {base['min_s'] * 1e3:.3f} ms -> "
                f"{stats['min_s'] * 1e3:.3f} ms ({ratio:.2f}x, "
                f"threshold {1.0 + threshold:.2f}x)"
            )
        print(f"  [{marker}] {name:>16}: baseline {base['min_s'] * 1e3:8.3f} ms"
              f"  now {stats['min_s'] * 1e3:8.3f} ms  ({ratio:.2f}x)")
    missing = set(base_sections) - set(fresh["sections"])
    for name in sorted(missing):
        failures.append(f"{name}: section present in baseline but not in suite")
    return failures


def merge_sections(baseline: dict, fresh: dict) -> dict:
    """``baseline`` with only the freshly run sections replaced."""
    merged = dict(baseline)
    merged["sections"] = {**baseline.get("sections", {}), **fresh["sections"]}
    return merged


def main(argv: list[str] | None = None) -> int:
    suite = _load_suite()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="write the fresh run to the baseline instead of comparing",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown per section (default 0.25)",
    )
    parser.add_argument(
        "--iters-scale", type=float, default=1.0,
        help="multiply every section's iteration count",
    )
    parser.add_argument(
        "--section", action="append", default=[], metavar="NAME",
        choices=sorted(suite.SECTIONS),
        help="run only this section (repeatable); with --update, rewrite "
             "only these sections of the baseline",
    )
    args = parser.parse_args(argv)

    if args.section and not BASELINE.exists():
        parser.error(f"--section needs an existing baseline at {BASELINE}")
    print(f"running hot-path suite ({', '.join(args.section) or 'all sections'}) ...")
    fresh = suite.run_suite(args.iters_scale, only=tuple(args.section))

    if args.update:
        if args.section:
            fresh = merge_sections(json.loads(BASELINE.read_text()), fresh)
        BASELINE.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {BASELINE}")
        return 0

    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; run with --update first", file=sys.stderr)
        return 2

    baseline = json.loads(BASELINE.read_text())
    if args.section:  # sections not asked for are not "missing from the suite"
        anchors = baseline.get("sections", {})
        baseline["sections"] = {n: anchors[n] for n in args.section if n in anchors}
    failures = compare(baseline, fresh, args.threshold)
    if failures:
        print("\nperformance regressions detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("no regressions.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
