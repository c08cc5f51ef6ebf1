"""Analytic payload size models (predictions, not accounting).

These formulas were the repo's byte accounting before the wire layer
existed; they now live next to the codecs whose encoded lengths they
must predict exactly.  Engines and experiments account bytes from
encoded frames only; the formulas remain because the paper's
communication-cost tables are stated in terms of them, and a tier-1
test pins ``len(codec.encode(p)) == predicted_bytes(p)`` for every
codec so the two can never drift.

* dense float32 payload: ``4 * d`` bytes (matches the paper's 1.64 MB
  figure for the ~430k-parameter CNN);
* sparse payload: the cheapest of COO (``8 * k``), bitmap
  (``ceil(d / 8) + 4 * k``), and dense — see
  :func:`sparse_payload_bytes`;
* quantised payload: ``ceil(d * bits / 8)`` plus one float32 scale per
  tensor.
"""

from __future__ import annotations

import math

__all__ = [
    "FLOAT_BYTES",
    "INDEX_BYTES",
    "MASKED_HEADER_BYTES",
    "dense_bytes",
    "sparse_bytes",
    "sparse_payload_bytes",
    "quantized_bytes",
    "masked_index_bytes",
    "masked_payload_bytes",
]

FLOAT_BYTES = 4  # gradients travel as float32 on the wire
INDEX_BYTES = 4  # uint32 coordinate indices

# Masked payload inner header: inner codec id (u8), inner flags (u8),
# selected coordinate count (u32).
MASKED_HEADER_BYTES = 6


def dense_bytes(dim: int) -> int:
    """Wire size of an uncompressed float32 gradient."""
    if dim < 0:
        raise ValueError("dim must be non-negative")
    return FLOAT_BYTES * dim


def sparse_bytes(nnz: int) -> int:
    """Wire size of a COO sparse gradient with ``nnz`` retained entries."""
    if nnz < 0:
        raise ValueError("nnz must be non-negative")
    return (FLOAT_BYTES + INDEX_BYTES) * nnz


def sparse_payload_bytes(dim: int, nnz: int) -> int:
    """Wire size of the cheapest encoding for a sparse gradient.

    A sender picks whichever of three encodings is smallest:
    COO (4-byte index + 4-byte value per entry), bitmap (one bit per
    coordinate plus packed values), or plain dense.  This matters at
    low compression ratios, where COO would exceed the dense size.
    ``SparseCodec.encode`` implements exactly this choice (same
    tie-breaking order), so the prediction is always the encode length.
    """
    if dim < 0 or nnz < 0 or nnz > dim:
        raise ValueError("need 0 <= nnz <= dim")
    coo = sparse_bytes(nnz)
    bitmap = FLOAT_BYTES * nnz + math.ceil(dim / 8.0)
    return min(coo, bitmap, dense_bytes(dim))


def quantized_bytes(dim: int, bits: float, num_scales: int = 1) -> int:
    """Wire size of a ``bits``-per-element quantised gradient."""
    if dim < 0 or bits <= 0 or num_scales < 0:
        raise ValueError("invalid quantisation size parameters")
    return math.ceil(dim * bits / 8.0) + FLOAT_BYTES * num_scales


def masked_index_bytes(dim: int, nsel: int) -> int:
    """Wire size of a masked payload's index block.

    A sender picks the cheaper of COO (4-byte uint32 per selected
    coordinate) and a membership bitmap (one bit per coordinate of the
    full vector), COO on ties — ``MaskedCodec`` implements the same
    first-minimum choice, so the prediction is always the encode
    length.
    """
    if dim < 0 or nsel < 0 or nsel > dim:
        raise ValueError("need 0 <= nsel <= dim")
    return min(INDEX_BYTES * nsel, math.ceil(dim / 8.0))


def masked_payload_bytes(dim: int, nsel: int, inner_payload_nbytes: int) -> int:
    """Wire size of a subspace-masked payload.

    Layout: a 6-byte inner header (inner codec id, inner flags,
    selected count), the cheapest index block, then the inner codec's
    payload encoded at dimensionality ``nsel``.
    """
    if inner_payload_nbytes < 0:
        raise ValueError("inner payload size must be non-negative")
    return (
        MASKED_HEADER_BYTES
        + masked_index_bytes(dim, nsel)
        + inner_payload_nbytes
    )
