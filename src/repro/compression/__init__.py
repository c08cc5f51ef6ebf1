"""Gradient compression substrate: DGC, top-k, QSGD, TernGrad."""

from repro.compression.base import CompressedGradient, Compressor, dense_bytes
from repro.compression.dgc import DGCCompressor
from repro.compression.identity import NoCompression
from repro.compression.qsgd import QSGDCompressor
from repro.compression.terngrad import TernGradCompressor
from repro.compression.topk import TopKCompressor, topk_indices

__all__ = [
    "CompressedGradient",
    "Compressor",
    "dense_bytes",
    "NoCompression",
    "TopKCompressor",
    "topk_indices",
    "DGCCompressor",
    "QSGDCompressor",
    "TernGradCompressor",
]
