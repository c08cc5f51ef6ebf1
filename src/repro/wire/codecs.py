"""Codec registry: payload family encoders/decoders behind the frames.

Each codec maps between a compressor's in-memory ``data`` dict (the
arrays :class:`repro.compression.base.CompressedGradient` carries) and
the exact bytes that travel in a :class:`~repro.wire.frame.Frame`
payload.  Every codec's :meth:`~Codec.payload_nbytes` *is* the
matching analytic formula from :mod:`repro.wire.sizes`, and a tier-1
test pins ``len(encode(...)) == payload_nbytes(...)`` for all of them,
so byte accounting from frames is bit-identical to the historical
formula-based accounting.

Registered codecs:

==  =========  ============================================
id  method     payload
==  =========  ============================================
1   none       dense float32, ``4 * d`` bytes
2   dgc        sparse (cheapest of COO / bitmap / dense)
3   topk       sparse (same encoding, distinct id)
4   qsgd       float32 norm + sign/level bit-packing
5   terngrad   float32 scale + 2-bit ternary stream
6   dense64    dense float64 (checkpoint fidelity)
8   masked     subspace index block + nested inner payload
==  =========  ============================================

(id 7 is reserved for :data:`repro.wire.frame.BLOB_CODEC_ID` sealed
envelopes, which bypass the registry.)

Decoders are zero-copy where numpy allows: ``np.frombuffer`` views
into the payload for index/value/dense arrays (read-only, which every
consumer respects).  Sparse frames record the chosen encoding in the
header ``flags`` byte; QSGD records its level count there.
"""

from __future__ import annotations

import math
import struct
from typing import Any

import numpy as np

from repro.wire.frame import FRAME_OVERHEAD, Frame, FrameError
from repro.wire.sizes import (
    FLOAT_BYTES,
    MASKED_HEADER_BYTES,
    dense_bytes,
    masked_index_bytes,
    masked_payload_bytes,
    quantized_bytes,
    sparse_bytes,
    sparse_payload_bytes,
)

__all__ = [
    "Codec",
    "DenseFloat32Codec",
    "DenseFloat64Codec",
    "SparseCodec",
    "QSGDCodec",
    "TernGradCodec",
    "MaskedCodec",
    "codec_for_id",
    "codec_for_method",
    "encode_frame",
    "decode_frame",
    "encode_model_frame",
    "predicted_payload_nbytes",
]

# Sparse encoding selectors carried in the frame flags byte.
_SPARSE_COO = 0
_SPARSE_BITMAP = 1
_SPARSE_DENSE = 2

# Masked index-block selectors carried in the frame flags byte.
_MASKED_COO = 0
_MASKED_BITMAP = 1

# Masked inner header: inner codec id (u8), inner flags (u8), nsel (u32).
_MASKED_HEADER = struct.Struct("<BBI")


class Codec:
    """One payload family: size model + encoder + decoder."""

    codec_id: int = 0
    method: str = ""

    def payload_nbytes(self, dim: int, data: dict[str, Any]) -> int:
        """Exact encoded payload size for ``data`` (the analytic model)."""
        raise NotImplementedError  # pragma: no cover - interface

    def flags(self, dim: int, data: dict[str, Any]) -> int:
        """Codec parameter byte stored in the frame header (default 0)."""
        del dim, data
        return 0

    def encode(self, dim: int, data: dict[str, Any], out: np.ndarray) -> None:
        """Serialise ``data`` into ``out``: the frame's payload region,
        exactly :meth:`payload_nbytes` uint8 long."""
        raise NotImplementedError  # pragma: no cover - interface

    def decode(self, dim: int, payload: bytes, flags: int) -> dict[str, Any]:
        """Rebuild the ``data`` dict from payload bytes."""
        raise NotImplementedError  # pragma: no cover - interface


def _view(payload: bytes, dtype: np.dtype, offset: int = 0, count: int = -1) -> np.ndarray:
    """Read-only zero-copy array view into the payload buffer."""
    return np.frombuffer(payload, dtype=dtype, offset=offset, count=count)


_U1, _U4, _F4, _F8 = (np.dtype(code) for code in ("u1", "<u4", "<f4", "<f8"))


def _put(out: np.ndarray, offset: int, values: Any, dtype: np.dtype) -> int:
    """Write ``values`` as ``dtype`` at byte ``offset`` of ``out`` — the
    cast happens in that one pass — and return the end offset."""
    values = np.asarray(values).reshape(-1)
    end = offset + values.size * dtype.itemsize
    out[offset:end].view(dtype)[...] = values
    return end


class DenseFloat32Codec(Codec):
    """Uncompressed float32 vector — the ``none`` compressor's wire form."""

    codec_id = 1
    method = "none"
    dtype = _F4

    def payload_nbytes(self, dim: int, data: dict[str, Any]) -> int:
        return dim * self.dtype.itemsize

    def encode(self, dim: int, data: dict[str, Any], out: np.ndarray) -> None:
        if np.size(data["values"]) != dim:
            raise FrameError(
                f"dense payload has {np.size(data['values'])} values, dim is {dim}"
            )
        _put(out, 0, data["values"], self.dtype)

    def decode(self, dim: int, payload: bytes, flags: int) -> dict[str, Any]:
        if len(payload) != dim * self.dtype.itemsize:
            raise FrameError(
                f"dense {self.dtype.name} payload of {len(payload)} bytes for dim {dim}"
            )
        return {"values": _view(payload, self.dtype)}


class DenseFloat64Codec(DenseFloat32Codec):
    """Full-fidelity float64 vector, used for persisted checkpoints."""

    codec_id = 6
    method = "dense64"
    dtype = _F8


class SparseCodec(Codec):
    """Sparse support: picks the cheapest of COO, bitmap, and dense.

    The selection order (COO, then bitmap, then dense on ties) mirrors
    :func:`repro.wire.sizes.sparse_payload_bytes`, whose ``min`` keeps
    the first minimum, so the encoded length always equals the
    prediction.  The chosen encoding travels in the flags byte.
    """

    def __init__(self, codec_id: int, method: str):
        self.codec_id = codec_id
        self.method = method

    def payload_nbytes(self, dim: int, data: dict[str, Any]) -> int:
        return sparse_payload_bytes(dim, int(np.asarray(data["indices"]).size))

    def _choice(self, dim: int, nnz: int) -> int:
        coo = sparse_bytes(nnz)
        bitmap = FLOAT_BYTES * nnz + math.ceil(dim / 8.0)
        dense = dense_bytes(dim)
        if coo <= bitmap and coo <= dense:
            return _SPARSE_COO
        if bitmap <= dense:
            return _SPARSE_BITMAP
        return _SPARSE_DENSE

    def flags(self, dim: int, data: dict[str, Any]) -> int:
        return self._choice(dim, int(np.asarray(data["indices"]).size))

    def encode(self, dim: int, data: dict[str, Any], out: np.ndarray) -> None:
        indices = np.ascontiguousarray(data["indices"], dtype=np.uint32)
        values = np.ascontiguousarray(data["values"], dtype=np.float32)
        if indices.size != values.size:
            raise FrameError("sparse payload index/value count mismatch")
        if indices.size and int(indices.max()) >= dim:
            raise FrameError("sparse index out of range for dim")
        choice = self._choice(dim, indices.size)
        if choice == _SPARSE_COO:
            _put(out, _put(out, 0, indices, _U4), values, _F4)
        elif choice == _SPARSE_BITMAP:
            _put(out, _put(out, 0, _membership_bits(dim, indices), _U1), values, _F4)
        else:
            dense = np.zeros(dim, dtype=np.float32)
            dense[indices.astype(np.intp)] = values
            _put(out, 0, dense, _F4)

    def decode(self, dim: int, payload: bytes, flags: int) -> dict[str, Any]:
        if flags == _SPARSE_COO:
            if len(payload) % 8 != 0:
                raise FrameError("COO payload length is not a multiple of 8")
            nnz = len(payload) // 8
            indices = _view(payload, np.dtype("<u4"), count=nnz)
            values = _view(payload, np.dtype("<f4"), offset=4 * nnz)
            if nnz and int(indices.max()) >= dim:
                raise FrameError("COO index out of range for dim")
            return {"indices": indices, "values": values}
        if flags == _SPARSE_BITMAP:
            mask_nbytes = math.ceil(dim / 8.0)
            if len(payload) < mask_nbytes:
                raise FrameError("bitmap payload shorter than its membership mask")
            mask = np.unpackbits(_view(payload, np.uint8, count=mask_nbytes), count=dim)
            indices = np.flatnonzero(mask).astype(np.uint32)
            values = _view(payload, np.dtype("<f4"), offset=mask_nbytes)
            if values.size != indices.size:
                raise FrameError("bitmap payload value count mismatch")
            return {"indices": indices, "values": values}
        if flags == _SPARSE_DENSE:
            if len(payload) != dense_bytes(dim):
                raise FrameError("dense-fallback sparse payload size mismatch")
            return {
                "indices": np.arange(dim, dtype=np.uint32),
                "values": _view(payload, np.dtype("<f4")),
            }
        raise FrameError(f"unknown sparse encoding selector {flags}")


class QSGDCodec(Codec):
    """QSGD sign/level bit-packing with a float32 norm scale.

    Per element: one sign bit followed by ``ceil(log2(L + 1))`` level
    bits, packed MSB-first; the level count ``L`` travels in the frame
    flags byte (so ``L`` must be <= 255, far above any configuration
    the paper uses).
    """

    codec_id = 4
    method = "qsgd"

    @staticmethod
    def _level_bits(num_levels: int) -> int:
        return max(1, math.ceil(math.log2(num_levels + 1)))

    def payload_nbytes(self, dim: int, data: dict[str, Any]) -> int:
        bits = 1.0 + self._level_bits(int(data["num_levels"]))
        return quantized_bytes(dim, bits)

    def flags(self, dim: int, data: dict[str, Any]) -> int:
        del dim
        num_levels = int(data["num_levels"])
        if not 1 <= num_levels <= 255:
            raise FrameError(f"num_levels {num_levels} does not fit the flags byte")
        return num_levels

    def encode(self, dim: int, data: dict[str, Any], out: np.ndarray) -> None:
        num_levels = int(data["num_levels"])
        level_bits = self._level_bits(num_levels)
        levels = np.ascontiguousarray(data["levels"], dtype=np.uint32)
        signs = np.asarray(data["signs"])
        if levels.size != dim or signs.size != dim:
            raise FrameError("quantised payload arrays do not match dim")
        if levels.size and int(levels.max()) > num_levels:
            raise FrameError("quantised level exceeds num_levels")
        codes = (np.where(signs < 0, 1, 0).astype(np.uint32) << level_bits) | levels
        packed = _pack_codes(codes, level_bits + 1)
        _put(out, _put(out, 0, np.float32(data["norm"]), _F4), packed, _U1)

    def decode(self, dim: int, payload: bytes, flags: int) -> dict[str, Any]:
        num_levels = int(flags)
        if num_levels < 1:
            raise FrameError("QSGD frame flags must carry the level count")
        level_bits = self._level_bits(num_levels)
        expected = quantized_bytes(dim, 1.0 + level_bits)
        if len(payload) != expected:
            raise FrameError(
                f"QSGD payload of {len(payload)} bytes, expected {expected}"
            )
        norm = float(_view(payload, np.dtype("<f4"), count=1)[0])
        codes = _unpack_codes(payload[FLOAT_BYTES:], dim, level_bits + 1)
        levels = (codes & ((1 << level_bits) - 1)).astype(np.int32)
        signs = np.where(codes >> level_bits, -1, 1).astype(np.int8)
        return {
            "norm": norm,
            "levels": levels,
            "signs": signs,
            "num_levels": num_levels,
        }


class TernGradCodec(Codec):
    """TernGrad: a float32 scale plus a 2-bit {-1, 0, +1} stream."""

    codec_id = 5
    method = "terngrad"

    def payload_nbytes(self, dim: int, data: dict[str, Any]) -> int:
        return quantized_bytes(dim, 2.0)

    def encode(self, dim: int, data: dict[str, Any], out: np.ndarray) -> None:
        ternary = np.asarray(data["ternary"])
        if ternary.size != dim:
            raise FrameError("ternary payload does not match dim")
        codes = (ternary.astype(np.int32) + 1).astype(np.uint32)
        if codes.size and int(codes.max()) > 2:
            raise FrameError("ternary payload has values outside {-1, 0, 1}")
        packed = _pack_codes(codes, 2)
        _put(out, _put(out, 0, np.float32(data["scale"]), _F4), packed, _U1)

    def decode(self, dim: int, payload: bytes, flags: int) -> dict[str, Any]:
        expected = quantized_bytes(dim, 2.0)
        if len(payload) != expected:
            raise FrameError(
                f"TernGrad payload of {len(payload)} bytes, expected {expected}"
            )
        scale = float(_view(payload, np.dtype("<f4"), count=1)[0])
        codes = _unpack_codes(payload[FLOAT_BYTES:], dim, 2)
        return {"scale": scale, "ternary": (codes.astype(np.int8) - 1)}


class MaskedCodec(Codec):
    """Subspace-masked payload: an index block plus a nested payload.

    Carries a gradient restricted to ``nsel`` of the model's ``dim``
    coordinates (Adaptive Federated Dropout sub-model updates).  The
    payload is a 6-byte inner header — inner codec id, inner flags,
    selected count — followed by the cheaper of a COO uint32 index
    block and a full-width membership bitmap (COO on ties, selector in
    the frame flags byte), then the *inner* codec's payload encoded at
    dimensionality ``nsel``.  Any registered codec except ``masked``
    itself can nest, so masked QSGD (AdaGQ over a sub-model) costs the
    index block plus the quantised sub-vector and nothing more.
    """

    codec_id = 8
    method = "masked"

    @staticmethod
    def _inner(data: dict[str, Any]) -> tuple[Codec, dict[str, Any]]:
        inner = codec_for_method(str(data["inner_method"]))
        if inner.codec_id == MaskedCodec.codec_id:
            raise FrameError("masked payloads cannot nest another masked payload")
        return inner, data["inner_data"]

    def payload_nbytes(self, dim: int, data: dict[str, Any]) -> int:
        inner, inner_data = self._inner(data)
        nsel = int(np.asarray(data["indices"]).size)
        return masked_payload_bytes(dim, nsel, inner.payload_nbytes(nsel, inner_data))

    def flags(self, dim: int, data: dict[str, Any]) -> int:
        nsel = int(np.asarray(data["indices"]).size)
        coo = 4 * nsel
        bitmap = math.ceil(dim / 8.0)
        return _MASKED_COO if coo <= bitmap else _MASKED_BITMAP

    def encode(self, dim: int, data: dict[str, Any], out: np.ndarray) -> None:
        inner, inner_data = self._inner(data)
        indices = np.ascontiguousarray(data["indices"], dtype=np.uint32)
        if indices.size and int(indices.max()) >= dim:
            raise FrameError("masked index out of range for dim")
        if indices.size > 1 and np.any(np.diff(indices.astype(np.int64)) <= 0):
            raise FrameError("masked indices must be strictly increasing")
        nsel = int(indices.size)
        _MASKED_HEADER.pack_into(
            out, 0, inner.codec_id, inner.flags(nsel, inner_data), nsel
        )
        if self.flags(dim, data) == _MASKED_COO:
            end = _put(out, MASKED_HEADER_BYTES, indices, _U4)
        else:
            end = _put(out, MASKED_HEADER_BYTES, _membership_bits(dim, indices), _U1)
        inner.encode(nsel, inner_data, out[end:])

    def decode(self, dim: int, payload: bytes, flags: int) -> dict[str, Any]:
        if len(payload) < MASKED_HEADER_BYTES:
            raise FrameError("masked payload shorter than its inner header")
        inner_id, inner_flags, nsel = _MASKED_HEADER.unpack(
            payload[:MASKED_HEADER_BYTES]
        )
        if nsel > dim:
            raise FrameError(f"masked payload selects {nsel} of only {dim} coords")
        inner = codec_for_id(inner_id)
        if inner.codec_id == MaskedCodec.codec_id:
            raise FrameError("masked payloads cannot nest another masked payload")
        index_nbytes = masked_index_bytes(dim, nsel)
        if len(payload) < MASKED_HEADER_BYTES + index_nbytes:
            raise FrameError("masked payload shorter than its index block")
        block = payload[MASKED_HEADER_BYTES : MASKED_HEADER_BYTES + index_nbytes]
        if flags == _MASKED_COO:
            if index_nbytes != 4 * nsel:
                raise FrameError("masked COO selector does not match cheapest block")
            indices = _view(block, np.dtype("<u4"))
        elif flags == _MASKED_BITMAP:
            if index_nbytes != math.ceil(dim / 8.0):
                raise FrameError("masked bitmap selector does not match cheapest block")
            mask = np.unpackbits(_view(block, np.uint8), count=dim)
            indices = np.flatnonzero(mask).astype(np.uint32)
            if indices.size != nsel:
                raise FrameError("masked bitmap population does not match nsel")
        else:
            raise FrameError(f"unknown masked index selector {flags}")
        if nsel and int(indices.max()) >= dim:
            raise FrameError("masked index out of range for dim")
        inner_payload = payload[MASKED_HEADER_BYTES + index_nbytes :]
        inner_data = inner.decode(nsel, inner_payload, inner_flags)
        return {
            "indices": indices,
            "inner_method": inner.method,
            "inner_data": inner_data,
        }


def _membership_bits(dim: int, indices: np.ndarray) -> np.ndarray:
    """The packed ``dim``-wide bitmap with the bits at ``indices`` set."""
    membership = np.zeros(dim, dtype=np.uint8)
    membership[indices.astype(np.intp)] = 1
    return np.packbits(membership)


def _pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack ``bits``-wide codes into a byte stream, MSB-first per code."""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    matrix = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return np.packbits(matrix.ravel())


def _unpack_codes(payload: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_pack_codes` for ``count`` codes."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    if raw.size * 8 < count * bits:
        raise FrameError("bit stream shorter than the declared element count")
    stream = np.unpackbits(raw, count=count * bits).reshape(count, bits)
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.uint32))
    return (stream.astype(np.uint32) * weights[None, :]).sum(axis=1, dtype=np.uint32)


_CODECS: tuple[Codec, ...] = (
    DenseFloat32Codec(),
    SparseCodec(codec_id=2, method="dgc"),
    SparseCodec(codec_id=3, method="topk"),
    QSGDCodec(),
    TernGradCodec(),
    DenseFloat64Codec(),
    MaskedCodec(),
)

_BY_ID: dict[int, Codec] = {c.codec_id: c for c in _CODECS}
_BY_METHOD: dict[str, Codec] = {c.method: c for c in _CODECS}


def codec_for_id(codec_id: int) -> Codec:
    """Registered codec for a frame header id."""
    codec = _BY_ID.get(codec_id)
    if codec is None:
        raise FrameError(f"unknown codec id {codec_id}")
    return codec


def codec_for_method(method: str) -> Codec:
    """Registered codec for a compressor method name.

    Error-feedback wrappers re-emit their inner payload, so
    ``ef(topk)``-style names resolve to the inner method's codec.
    """
    if method.startswith("ef(") and method.endswith(")"):
        method = method[3:-1]
    codec = _BY_METHOD.get(method)
    if codec is None:
        raise FrameError(f"no codec registered for method {method!r}")
    return codec


def predicted_payload_nbytes(method: str, dim: int, data: dict[str, Any]) -> int:
    """Analytic payload size for a method — always the encode length."""
    return codec_for_method(method).payload_nbytes(dim, data)


def encode_frame(
    method: str, dim: int, data: dict[str, Any], model_version: int = 0
) -> Frame:
    """Encode one payload dict into a ready-to-send frame."""
    codec = codec_for_method(method)
    flags = codec.flags(dim, data)
    # The codec writes straight into the buffer that goes on the wire.
    wire = bytearray(FRAME_OVERHEAD + codec.payload_nbytes(dim, data))
    codec.encode(dim, data, np.frombuffer(wire, dtype=np.uint8, offset=FRAME_OVERHEAD))
    return Frame.over(wire, codec.codec_id, flags, dim, model_version)


def decode_frame(frame: Frame) -> tuple[str, dict[str, Any]]:
    """Decode a frame back to ``(method, data)`` via its header codec id."""
    codec = codec_for_id(frame.codec_id)
    return codec.method, codec.decode(frame.dim, frame.payload, frame.flags)


def encode_model_frame(params: np.ndarray, model_version: int) -> Frame:
    """The server model broadcast frame: dense float32 of the params."""
    return encode_frame("none", np.size(params), {"values": params}, model_version)
