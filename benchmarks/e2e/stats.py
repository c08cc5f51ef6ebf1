"""Medians, quartiles and the regression rule for benchmark metrics.

Pure functions over lists of numbers, shared by `run.py` and the
harness tests.  A *bound* is the share of the baseline median by which
a metric may get worse before the change counts as a regression;
"worse" follows the metric's direction (`better` is "lower" or
"higher").
"""

from __future__ import annotations

import statistics

__all__ = ["summarize", "worsening", "verdict"]


def summarize(values: list[float]) -> dict:
    """Median, quartiles, spread (IQR / median) and the sample count."""
    if not values:
        raise ValueError("no values to summarize")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def worsening(base: float, new: float, better: str) -> float:
    """How much worse `new` is than `base`, as a share of `base` (< 0: better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Compare two sets of runs of one metric on one workload.

    * ``regressed`` — the new median is worse by more than the bound;
    * ``unresolved`` — it is not, but the baseline's own spread is wider
      than the bound, so "no regression" cannot be told from noise —
      unless every new run reads better than every baseline run;
    * ``unchanged`` — within the bound, and the bound is resolvable.
    """
    b, n = summarize(base), summarize(new)
    if worsening(b["median"], n["median"], better) > bound:
        return "regressed"
    if b["spread"] > bound:
        all_better = (
            max(new) < min(base) if better == "lower" else min(new) > max(base)
        )
        if not all_better:
            return "unresolved"
    return "unchanged"
