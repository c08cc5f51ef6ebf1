"""Plain-text reporting: the tables and series the paper prints.

Benchmarks call these formatters so running ``pytest benchmarks/``
produces output directly comparable, row by row, against the paper's
Tables I/II and the figure series.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_table", "format_series", "format_bytes"]


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte size (KB/MB like the paper's tables)."""
    if num_bytes < 0:
        raise ValueError("num_bytes must be non-negative")
    if num_bytes < 1024:
        return f"{num_bytes:.0f}B"
    if num_bytes < 1024**2:
        return f"{num_bytes / 1024:.0f}KB"
    return f"{num_bytes / 1024**2:.2f}MB"


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Fixed-width ASCII table."""
    if not headers:
        raise ValueError("headers must be non-empty")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    label: str,
    x: np.ndarray,
    y: np.ndarray,
    x_name: str = "round",
    y_name: str = "accuracy",
    max_points: int = 12,
) -> str:
    """One figure series as a compact text row set.

    Long series are subsampled (keeping endpoints) so benchmark output
    stays readable.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    if x.size == 0:
        return f"{label}: (no data)"
    if x.size > max_points:
        idx = np.unique(
            np.concatenate([[0], np.linspace(0, x.size - 1, max_points).astype(int)])
        )
        x, y = x[idx], y[idx]
    pairs = ", ".join(f"{xi:g}:{yi:.3f}" for xi, yi in zip(x, y))
    return f"{label} ({x_name}:{y_name}): {pairs}"
