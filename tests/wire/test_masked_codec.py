"""Masked codec (id 8): byte-true lengths, COO/bitmap selection,
round trips over every inner codec, and strict validation."""

import math
import struct

import numpy as np
import pytest

from repro.compression.base import CompressedGradient
from repro.compression.qsgd import QSGDCompressor
from repro.nn.subspace import ParamLayoutEntry, ParamSubspace
from repro.wire import (
    Frame,
    FrameCorruptionError,
    MASKED_HEADER_BYTES,
    decode_frame,
    encode_frame,
    encode_model_frame,
    masked_index_bytes,
    masked_payload_bytes,
    predicted_payload_nbytes,
)

pytestmark = pytest.mark.wire


def _masked_data(dim, indices, inner_method="none", inner_data=None):
    indices = np.asarray(indices, dtype=np.uint32)
    if inner_data is None:
        inner_data = {
            "values": np.arange(indices.size, dtype=np.float32) * 0.5 - 1.0
        }
    return {
        "indices": indices,
        "inner_method": inner_method,
        "inner_data": inner_data,
    }


class TestByteAccounting:
    """Satellite pin: exact encoded length == analytic prediction."""

    @pytest.mark.parametrize("dim", (8, 100, 1000))
    @pytest.mark.parametrize("frac", (0.01, 0.3, 0.9))
    def test_exact_equals_predicted(self, dim, frac):
        nsel = max(1, int(frac * dim))
        data = _masked_data(dim, np.arange(nsel))
        frame = encode_frame("masked", dim, data)
        predicted = predicted_payload_nbytes("masked", dim, data)
        assert frame.payload_nbytes == predicted
        assert predicted == masked_payload_bytes(dim, nsel, 4 * nsel)

    def test_index_block_picks_cheaper_encoding(self):
        # Sparse: COO (4 bytes/index) beats the bitmap.
        assert masked_index_bytes(1000, 10) == 40
        # Dense: bitmap (dim/8 bytes) beats COO.
        assert masked_index_bytes(1000, 900) == math.ceil(1000 / 8)
        # Tie goes to COO (2*8 selected in a 64-wide vector: 8B vs 8B).
        dim, nsel = 64, 2
        assert 4 * nsel == math.ceil(dim / 8)
        assert masked_index_bytes(dim, nsel) == 4 * nsel
        data = _masked_data(dim, [3, 40])
        payload = encode_frame("masked", dim, data).payload
        # Outer flags byte: 0 = COO.
        _, _, n = struct.unpack_from("<BBI", payload, 0)
        assert n == nsel

    def test_header_constant(self):
        assert MASKED_HEADER_BYTES == struct.calcsize("<BBI")


class TestRoundTrip:
    @pytest.mark.parametrize("dim,indices", [
        (10, [0, 4, 9]),              # sparse -> COO
        (64, list(range(0, 64, 2))),  # dense -> bitmap
        (5, [0, 1, 2, 3, 4]),         # complete mask
    ])
    def test_none_inner(self, dim, indices):
        data = _masked_data(dim, indices)
        frame = encode_frame("masked", dim, data)
        method, decoded = decode_frame(frame)
        assert method == "masked"
        assert np.array_equal(decoded["indices"], data["indices"])
        assert decoded["inner_method"] == "none"
        assert np.array_equal(
            decoded["inner_data"]["values"], data["inner_data"]["values"]
        )

    def test_qsgd_inner(self):
        dim, nsel = 200, 30
        rng = np.random.default_rng(5)
        inner = {
            "norm": 1.5,
            "levels": rng.integers(0, 9, size=nsel).astype(np.uint32),
            "signs": rng.choice(np.array([-1, 1], dtype=np.int8), size=nsel),
            "num_levels": 8,
        }
        data = _masked_data(dim, np.arange(nsel) * 6, "qsgd", inner)
        frame = encode_frame("masked", dim, data)
        assert frame.payload_nbytes == predicted_payload_nbytes(
            "masked", dim, data
        )
        _, decoded = decode_frame(frame)
        assert decoded["inner_method"] == "qsgd"
        assert decoded["inner_data"]["num_levels"] == 8
        assert np.array_equal(decoded["inner_data"]["levels"], inner["levels"])
        assert np.array_equal(decoded["inner_data"]["signs"], inner["signs"])

    def test_frame_bytes_round_trip(self):
        data = _masked_data(50, [1, 7, 30])
        frame = encode_frame("masked", 50, data)
        revived = Frame.from_bytes(frame.to_bytes())
        _, decoded = decode_frame(revived)
        assert np.array_equal(decoded["indices"], data["indices"])


class TestAFDUpload:
    """One Adaptive Federated Dropout upload at the MNIST-CNN dim, end to end."""

    # conv/fc weights and their biases, d = 431 080
    SIZES = (800, 32, 51_200, 64, 368_640, 10, 10_240, 94)

    def test_masked_qsgd_trip_bytes_are_pinned(self):
        layout, offset = [], 0
        for i, size in enumerate(self.SIZES):
            layout.append(ParamLayoutEntry(f"p{i}", offset, size))
            offset += size
        dim = offset
        assert dim == 431_080
        rng = np.random.default_rng(0)
        sub = ParamSubspace.sample(layout, 0.4, rng)
        delta = rng.normal(size=dim)
        comp = QSGDCompressor(sub.size, num_levels=16, rng=np.random.default_rng(1))

        payload = comp.compress(sub.gather(delta))
        buf = encode_frame(
            "masked",
            dim,
            {
                "indices": sub.indices.astype(np.uint32),
                "inner_method": "qsgd",
                "inner_data": payload.data,
            },
            model_version=1,
        ).to_bytes()
        _, decoded = decode_frame(Frame.from_bytes(buf))
        inner = CompressedGradient(
            method="qsgd", dim=sub.size, num_bytes=len(buf), data=decoded["inner_data"]
        )
        out = sub.scatter(comp.decompress(inner), np.zeros(dim))

        assert len(buf) == 183_244
        assert len(encode_model_frame(delta, 1).to_bytes()) == 1_724_344
        off = np.ones(dim, dtype=bool)
        off[sub.indices] = False
        assert not out[off].any()
        assert np.array_equal(out[sub.indices], comp.decompress(payload))


class TestValidation:
    def test_nested_masked_rejected(self):
        data = _masked_data(10, [1, 2], inner_method="masked",
                            inner_data=_masked_data(2, [0]))
        with pytest.raises(ValueError):
            encode_frame("masked", 10, data)

    def test_unsorted_indices_rejected(self):
        data = _masked_data(10, [4, 1])
        with pytest.raises(ValueError):
            encode_frame("masked", 10, data)

    def test_duplicate_indices_rejected(self):
        data = _masked_data(10, [1, 1, 3])
        with pytest.raises(ValueError):
            encode_frame("masked", 10, data)

    def test_out_of_range_indices_rejected(self):
        data = _masked_data(10, [1, 10])
        with pytest.raises(ValueError):
            encode_frame("masked", 10, data)

    def test_crc_detects_payload_corruption(self):
        data = _masked_data(40, [0, 5, 11, 20])
        raw = bytearray(encode_frame("masked", 40, data).to_bytes())
        raw[-1] ^= 0xFF
        with pytest.raises(FrameCorruptionError):
            Frame.from_bytes(bytes(raw))

    def test_truncated_payload_rejected(self):
        import dataclasses

        data = _masked_data(40, [0, 5, 11])
        frame = encode_frame("masked", 40, data)
        truncated = dataclasses.replace(frame, payload=frame.payload[:-2])
        with pytest.raises((ValueError, FrameCorruptionError)):
            decode_frame(truncated)
