"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.data.synthetic import (
    _bilinear_zoom,
    make_image_classification,
    make_mnist_like,
    make_prototypes,
)


class TestPrototypes:
    def test_shape(self, rng):
        protos = make_prototypes(5, (3, 8, 8), 2, rng)
        assert protos.shape == (5, 2, 3, 8, 8)

    def test_normalised(self, rng):
        protos = make_prototypes(3, (1, 10, 10), 1, rng)
        for cls in range(3):
            assert abs(protos[cls, 0].std() - 1.0) < 0.05
            assert abs(protos[cls, 0].mean()) < 0.05

    def test_classes_differ(self, rng):
        protos = make_prototypes(2, (1, 8, 8), 1, rng)
        assert np.linalg.norm(protos[0] - protos[1]) > 0.5


class TestBilinearZoom:
    """The numpy zoom that replaced ``scipy.ndimage.zoom(order=1)``."""

    def test_equals_scipy_over_geometries(self, rng):
        ndimage = pytest.importorskip("scipy.ndimage")
        sizes = [*range(2, 70), 97, 128, 188, 224, 299]
        checked = 0
        for coarse in range(2, 9):
            for h in sizes:
                for w in {h, h + 3, max(2, h - 5)}:
                    field = rng.normal(size=(coarse, coarse))
                    want = ndimage.zoom(field, (h / coarse, w / coarse), order=1)
                    got = _bilinear_zoom(field, h / coarse, w / coarse)
                    # Values, zero signs and layout: the prototypes'
                    # mean/std sum in memory order.
                    assert got.shape == want.shape, (coarse, h, w)
                    assert np.array_equal(got, want), (coarse, h, w)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
                    assert got.flags["C_CONTIGUOUS"]
                    checked += 1
        assert checked > 1500

    def test_coordinate_rounded_past_the_edge_is_zero(self, rng):
        # 8 -> 26: 25 * (7 / 25) > 7, which scipy's mode="constant"
        # (and therefore every pinned trajectory) maps to 0.0.
        out = _bilinear_zoom(rng.normal(size=(8, 8)), 26 / 8, 26 / 8)
        assert np.all(out[-1] == 0.0) and np.all(out[:, -1] == 0.0)
        assert np.all(out[:-1, :-1] != 0.0)

    def test_corners_are_the_input_corners(self, rng):
        field = rng.normal(size=(4, 4))
        out = _bilinear_zoom(field, 14 / 4, 14 / 4)
        assert out.shape == (14, 14)
        assert out[0, 0] == field[0, 0] and out[-1, -1] == field[-1, -1]
        assert out[0, -1] == field[0, -1] and out[-1, 0] == field[-1, 0]


# The image shapes the experiment presets, the benchmark's wide MLP and
# the population smoke synthesise.
_PINNED_SHAPES = (
    (1, 10, 10), (3, 10, 10), (1, 14, 14), (3, 14, 14), (1, 28, 28), (1, 6, 6),
)


def test_dataset_bytes_pinned():
    """Generated with the scipy-backed zoom on the parent commit: guards
    the numpy replacement where scipy is not installed."""
    digest = hashlib.sha256()
    for shape in _PINNED_SHAPES:
        for part in make_image_classification(
            40, 12, 4, shape, noise_std=0.7, prototypes_per_class=2, seed=3
        ):
            digest.update(np.ascontiguousarray(part.x).tobytes())
            digest.update(np.ascontiguousarray(part.y).tobytes())
    assert digest.hexdigest() == (
        "ee5c1a1119585afb6fa455dbdce4f3ff5c871b7e5268f33bdca3b37bacd9bd10"
    )


class TestMakeImageClassification:
    def test_shapes_and_sizes(self):
        train, test = make_image_classification(30, 12, 4, (1, 6, 6), seed=0)
        assert len(train) == 30
        assert len(test) == 12
        assert train.input_shape == (1, 6, 6)
        assert train.num_classes == 4

    def test_balanced_labels(self):
        train, _ = make_image_classification(40, 10, 4, (1, 6, 6), seed=0)
        counts = train.class_counts()
        assert counts.min() == counts.max() == 10

    def test_deterministic(self):
        a, _ = make_image_classification(10, 5, 2, (1, 4, 4), seed=3)
        b, _ = make_image_classification(10, 5, 2, (1, 4, 4), seed=3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        a, _ = make_image_classification(10, 5, 2, (1, 4, 4), seed=3)
        b, _ = make_image_classification(10, 5, 2, (1, 4, 4), seed=4)
        assert not np.array_equal(a.x, b.x)

    def test_noise_zero_is_pure_prototypes(self):
        train, _ = make_image_classification(
            20, 5, 2, (1, 4, 4), noise_std=0.0, max_shift=0, seed=0
        )
        # All samples of one class are identical when noise and shift are off.
        cls0 = train.x[train.y == 0]
        assert np.allclose(cls0, cls0[0])

    def test_learnable_separation(self):
        """A nearest-prototype classifier beats chance at moderate noise."""
        train, test = make_image_classification(
            100, 50, 4, (1, 6, 6), noise_std=0.5, max_shift=0, seed=1
        )
        means = np.stack([train.x[train.y == c].mean(axis=0) for c in range(4)])
        dists = ((test.x[:, None] - means[None]) ** 2).sum(axis=(2, 3, 4))
        acc = (dists.argmin(axis=1) == test.y).mean()
        assert acc > 0.7

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_image_classification(0, 5, 2)

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            make_image_classification(5, 5, 2, noise_std=-1.0)


class TestNamedBuilders:
    def test_mnist_like(self):
        train, test = make_mnist_like(50, 20, seed=0)
        assert train.input_shape == (1, 14, 14)
        assert train.num_classes == 10
