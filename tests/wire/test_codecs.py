"""Codec round trips and the byte-true pin: encode length == prediction.

The two properties everything downstream relies on:

* every codec's encoded payload length equals the analytic formula the
  byte accounting charges (so frames never drift from the predictions);
* decode(encode(x)) is bit-exact for every payload family, including
  the sparse encoding-selection edges (k=0, all-dense) and quantizer
  bit widths from 1 to 8 bits per element.
"""

import numpy as np
import pytest

from repro.compression.base import CompressedGradient, SparseDelta, densify
from repro.compression.dgc import DGCCompressor
from repro.compression.identity import NoCompression
from repro.compression.qsgd import QSGDCompressor
from repro.compression.terngrad import TernGradCompressor
from repro.compression.topk import topk_indices
from repro.wire import (
    FRAME_OVERHEAD,
    FrameCorruptionError,
    Frame,
    decode_frame,
    encode_frame,
    encode_model_frame,
    predicted_payload_nbytes,
)

pytestmark = pytest.mark.wire

DIMS = (1, 7, 64, 1000)


def _grad(dim, seed=0):
    return np.random.default_rng(seed).standard_normal(dim)


def _roundtrip(frame):
    return Frame.from_bytes(frame.to_bytes())


class TestEncodeLengthIsPrediction:
    """Tier-1 pin: len(encode) == the analytic prediction, per codec."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_dense(self, dim):
        data = {"values": _grad(dim).astype(np.float32)}
        frame = encode_frame("none", dim, data)
        assert frame.payload_nbytes == predicted_payload_nbytes("none", dim, data)

    @pytest.mark.parametrize("dim", (64, 1000))
    @pytest.mark.parametrize("k", (0, 1, 8, 32, 64))
    def test_sparse(self, dim, k):
        k = min(k, dim)
        indices = np.arange(k, dtype=np.uint32)
        data = {
            "indices": indices,
            "values": _grad(dim)[:k].astype(np.float32),
        }
        for method in ("dgc", "topk"):
            frame = encode_frame(method, dim, data)
            assert frame.payload_nbytes == predicted_payload_nbytes(
                method, dim, data
            )

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("num_levels", (1, 2, 4, 16, 127, 255))
    def test_qsgd(self, dim, num_levels):
        rng = np.random.default_rng(3)
        data = {
            "norm": 2.5,
            "levels": rng.integers(0, num_levels + 1, size=dim).astype(np.uint32),
            "signs": rng.choice(np.array([-1, 1], dtype=np.int8), size=dim),
            "num_levels": num_levels,
        }
        frame = encode_frame("qsgd", dim, data)
        assert frame.payload_nbytes == predicted_payload_nbytes("qsgd", dim, data)

    @pytest.mark.parametrize("dim", DIMS)
    def test_terngrad(self, dim):
        rng = np.random.default_rng(4)
        data = {
            "scale": 1.25,
            "ternary": rng.integers(-1, 2, size=dim).astype(np.int8),
        }
        frame = encode_frame("terngrad", dim, data)
        assert frame.payload_nbytes == predicted_payload_nbytes(
            "terngrad", dim, data
        )


class TestCompressorRoundTrips:
    """compress -> to_frame -> wire bytes -> from_frame is bit-exact."""

    def _wire_trip(self, decompress, payload):
        frame = _roundtrip(payload.to_frame(model_version=5))
        assert frame.model_version == 5
        back = type(payload).from_frame(frame)
        assert back.num_bytes == payload.num_bytes
        np.testing.assert_array_equal(
            densify(decompress(back)), densify(decompress(payload))
        )
        return back

    @pytest.mark.parametrize("dim", DIMS)
    def test_identity(self, dim):
        comp = NoCompression(dim)
        self._wire_trip(comp.decompress, comp.compress(_grad(dim)))

    @pytest.mark.parametrize("dim", (64, 1000))
    @pytest.mark.parametrize("ratio", (1.0, 2.0, 100.0))
    def test_topk(self, dim, ratio):
        # Plain top-k: the d / ratio largest magnitudes on the topk codec.
        grad = _grad(dim)
        idx = topk_indices(grad, max(1, round(dim / ratio)))
        data = {"indices": idx.astype(np.uint32), "values": grad[idx].astype(np.float32)}
        payload = CompressedGradient(
            "topk", dim, predicted_payload_nbytes("topk", dim, data), data
        )
        self._wire_trip(SparseDelta.of, payload)

    @pytest.mark.parametrize("ratio", (2.0, 20.0))
    def test_dgc(self, ratio):
        comp = DGCCompressor(dim=500)
        comp.compress(_grad(500, seed=1), ratio=ratio)  # warm the residual
        self._wire_trip(comp.decompress, comp.compress(_grad(500, seed=2), ratio=ratio))

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("num_levels", (1, 4, 16, 255))
    def test_qsgd(self, dim, num_levels):
        comp = QSGDCompressor(dim, num_levels=num_levels,
                              rng=np.random.default_rng(8))
        self._wire_trip(comp.decompress, comp.compress(_grad(dim)))

    @pytest.mark.parametrize("dim", DIMS)
    def test_terngrad(self, dim):
        comp = TernGradCompressor(dim, rng=np.random.default_rng(9))
        self._wire_trip(comp.decompress, comp.compress(_grad(dim)))


class TestSparseEncodingSelection:
    def test_coo_for_very_sparse(self):
        dim, k = 1000, 5
        frame = encode_frame("dgc", dim, _sparse_data(dim, k))
        assert frame.flags == 0  # COO
        _assert_sparse_decode(frame, dim, k)

    def test_bitmap_when_indices_dominate(self):
        dim, k = 1000, 400
        frame = encode_frame("dgc", dim, _sparse_data(dim, k))
        assert frame.flags == 1  # bitmap: 4k+125 < 8k and < 4000
        _assert_sparse_decode(frame, dim, k)

    def test_dense_fallback_when_k_is_dim(self):
        dim = 64
        frame = encode_frame("topk", dim, _sparse_data(dim, dim))
        assert frame.flags == 2  # dense scatter
        _assert_sparse_decode(frame, dim, dim)

    def test_empty_selection(self):
        dim = 128
        frame = encode_frame("dgc", dim, _sparse_data(dim, 0))
        _, data = decode_frame(_roundtrip(frame))
        assert data["indices"].size == 0
        assert data["values"].size == 0


def _sparse_data(dim, k):
    rng = np.random.default_rng(11)
    indices = np.sort(rng.choice(dim, size=k, replace=False)).astype(np.uint32)
    return {
        "indices": indices,
        "values": rng.standard_normal(k).astype(np.float32),
    }


def _assert_sparse_decode(frame, dim, k):
    _, data = decode_frame(_roundtrip(frame))
    expected = _sparse_data(dim, k)
    np.testing.assert_array_equal(
        np.asarray(data["indices"], dtype=np.uint32), expected["indices"]
    )
    np.testing.assert_array_equal(data["values"], expected["values"])


class TestModelFrame:
    @pytest.mark.parametrize("dim", DIMS)
    def test_round_trip(self, dim):
        params = _grad(dim)
        frame = _roundtrip(encode_model_frame(params, model_version=3))
        assert frame.model_version == 3
        method, data = decode_frame(frame)
        assert method == "none"
        np.testing.assert_array_equal(
            data["values"], params.astype(np.float32)
        )

    def test_flipped_byte_fails(self):
        buf = bytearray(encode_model_frame(_grad(32), 0).to_bytes())
        buf[FRAME_OVERHEAD + 17] ^= 0x04
        with pytest.raises(FrameCorruptionError):
            Frame.from_bytes(bytes(buf))
