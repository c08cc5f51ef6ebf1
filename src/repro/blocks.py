"""Cache-blocked elementwise kernels shared by ``nn``, ``compression`` and ``fl``.

A chain of elementwise operations applied block by block computes
exactly what it computes over whole arrays — no reduction crosses a
block — but streams each operand through memory once per chain instead
of once per operation.  This module sits below every package that runs
such a chain (``SGD.step``, ``weighted_average``, DGC's
momentum → residual → magnitude pass), so none of them has to import
another for it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["row_blocks", "add_scaled"]

# Elements per block of the blocked elementwise kernels: a float64
# accumulator block, its operand and the product scratch (3 x 256 KiB)
# stay inside a 1 MiB L2 cache.
_BLOCK_ELEMENTS = 32768


def row_blocks(array: np.ndarray) -> Sequence[slice | type(...)]:
    """Indices cutting ``array`` into first-axis blocks of about one
    cache block each; an array that fits one is ``(...,)``, whole."""
    if array.size <= _BLOCK_ELEMENTS:
        return (...,)
    n = len(array)
    rows = max(1, _BLOCK_ELEMENTS * n // array.size)
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


def add_scaled(acc: np.ndarray, terms: Sequence[tuple[float, np.ndarray]]) -> None:
    """``for w, x in terms: acc += w * x``, bit for bit, one block at a time.

    Each product is computed at ``acc``'s width — a float32 term is
    widened, never the product rounded to float32 — rounded into the
    scratch and then added, in term order, exactly as the loop does; the
    block of ``acc`` and the scratch (one per call, never returned) stay
    in cache across terms.
    """
    for _, x in terms:
        if x.shape != acc.shape:
            raise ValueError(f"term of shape {x.shape} added to shape {acc.shape}")
    scratch = None
    for rows in row_blocks(acc):
        block = acc[rows]
        if scratch is None or scratch.shape != block.shape:  # first block, short last block
            scratch = np.empty_like(block)
        for w, x in terms:
            block += np.multiply(x[rows], w, out=scratch, dtype=scratch.dtype)
