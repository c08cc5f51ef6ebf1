"""Tests for compressor base machinery and size models."""

import numpy as np
import pytest

from repro.compression.base import CompressedGradient, Compressor
from repro.compression.identity import NoCompression
from repro.wire.sizes import dense_bytes, quantized_bytes, sparse_bytes, sparse_payload_bytes


class TestSizeModels:
    def test_dense(self):
        assert dense_bytes(1000) == 4000

    def test_dense_matches_paper_cnn(self):
        # ~430k parameters -> the paper's 1.64MB dense gradient.
        params = 431_080
        assert abs(dense_bytes(params) / 1024 / 1024 - 1.64) < 0.05

    def test_sparse(self):
        assert sparse_bytes(10) == 80  # 4B value + 4B index each

    def test_sparse_payload_picks_coo_when_very_sparse(self):
        # nnz=10 of dim=10000: COO 80B < bitmap 1290B < dense 40000B.
        assert sparse_payload_bytes(10000, 10) == 80

    def test_sparse_payload_picks_bitmap_at_low_ratio(self):
        # nnz=500 of dim=1000: bitmap 2125B < COO 4000B < dense 4000B.
        assert sparse_payload_bytes(1000, 500) == 4 * 500 + 125

    def test_sparse_payload_never_exceeds_dense(self):
        for nnz in (0, 1, 500, 999, 1000):
            assert sparse_payload_bytes(1000, nnz) <= dense_bytes(1000)

    def test_sparse_payload_validates(self):
        with pytest.raises(ValueError):
            sparse_payload_bytes(10, 11)

    def test_quantized(self):
        # 2 bits/elem over 100 elems = 25 bytes + one 4-byte scale.
        assert quantized_bytes(100, 2.0) == 29

    def test_quantized_rounds_up(self):
        assert quantized_bytes(3, 2.0, num_scales=0) == 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            dense_bytes(-1)
        with pytest.raises(ValueError):
            sparse_bytes(-1)
        with pytest.raises(ValueError):
            quantized_bytes(10, 0.0)


class TestCompressedGradient:
    def test_ratio(self):
        payload = CompressedGradient(method="x", dim=1000, num_bytes=400)
        assert payload.compression_ratio == 10.0

    def test_zero_bytes_infinite_ratio(self):
        payload = CompressedGradient(method="x", dim=10, num_bytes=0)
        assert payload.compression_ratio == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressedGradient(method="x", dim=-1, num_bytes=0)


class TestCompressorBase:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            NoCompression(0)

    def test_check_grad_shape(self, rng):
        comp = NoCompression(10)
        with pytest.raises(ValueError):
            comp.compress(rng.normal(size=(5,)))
        with pytest.raises(ValueError):
            comp.compress(rng.normal(size=(2, 5)))

    def test_abstract_methods(self):
        comp = Compressor(4)
        with pytest.raises(NotImplementedError):
            comp.compress(np.zeros(4))


class TestNoCompression:
    def test_roundtrip_exact_in_float32(self, rng):
        comp = NoCompression(20)
        grad = rng.normal(size=20)
        restored, payload = comp.roundtrip(grad)
        np.testing.assert_allclose(restored, grad, atol=1e-6)
        assert payload.num_bytes == dense_bytes(20)
        assert payload.compression_ratio == 1.0

    def test_method_mismatch_raises(self, rng):
        comp = NoCompression(5)
        payload = comp.compress(rng.normal(size=5))
        payload.method = "other"
        with pytest.raises(ValueError):
            comp.decompress(payload)
