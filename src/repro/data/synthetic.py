"""Synthetic image-classification datasets.

This environment has no network access, so MNIST / CIFAR-10 / CIFAR-100
are replaced by class-conditional generators (see the substitution
table in DESIGN.md; the parameters every run synthesises from are
``repro.experiments.runner.DATASET_PROFILES``).  Each class is defined
by one or more smooth random *prototype* images; samples are
prototypes plus Gaussian pixel noise and small random translations.
Difficulty is controlled by the noise level, the number of
sub-prototypes per class, and the image size, and is tuned so the
paper's models show the same qualitative convergence behaviour (fast
on the MNIST-like set, slower and noisier on the CIFAR-like sets).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset

__all__ = [
    "make_prototypes",
    "make_image_classification",
    "make_mnist_like",
]


def _axis_taps(n_in: int, n_out: int):
    """Per output index: the two input taps, their weights, and whether
    the coordinate fell outside the input."""
    coord = np.arange(n_out) * ((n_in - 1) / max(n_out - 1, 1))
    lo = np.floor(coord).astype(np.intp)
    w_lo = 1.0 - (coord - lo)
    # Rounding can push the last coordinate past ``n_in - 1``; such an
    # output is 0 (constant fill), not the edge — see _bilinear_zoom.
    outside = coord > n_in - 1
    # The tap past the last sample is mirrored; its weight is 0 there.
    hi = np.where(lo + 1 > n_in - 1, n_in - 2, lo + 1)
    return lo, hi, w_lo, 1.0 - w_lo, outside


def _bilinear_zoom(field: np.ndarray, zoom_h: float, zoom_w: float) -> np.ndarray:
    """Bilinear upsampling of a 2-D field, corner-aligned.

    Bit-equal — same coordinates, same tap order in the sum, same
    constant fill and C layout — to the ``ndimage.zoom(order=1)`` call
    that generated every pinned trajectory and was this package's one
    use of a second dependency; tests/data/test_synthetic.py keeps that
    routine as the oracle where it is installed.
    """
    n_h, n_w = field.shape
    r_lo, r_hi, wh_lo, wh_hi, out_h = _axis_taps(n_h, int(round(n_h * zoom_h)))
    c_lo, c_hi, ww_lo, ww_hi, out_w = _axis_taps(n_w, int(round(n_w * zoom_w)))
    r_lo, r_hi, wh_lo, wh_hi = r_lo[:, None], r_hi[:, None], wh_lo[:, None], wh_hi[:, None]
    out = (
        field[r_lo, c_lo] * wh_lo * ww_lo + field[r_lo, c_hi] * wh_lo * ww_hi
        + field[r_hi, c_lo] * wh_hi * ww_lo + field[r_hi, c_hi] * wh_hi * ww_hi
    )
    out[out_h, :] = 0.0
    out[:, out_w] = 0.0
    return out


def make_prototypes(
    num_classes: int,
    image_shape: tuple[int, int, int],
    prototypes_per_class: int,
    rng: np.random.Generator,
    coarse: int = 4,
) -> np.ndarray:
    """Generate smooth random prototype images.

    Returns an array of shape ``(num_classes, prototypes_per_class, C,
    H, W)``.  Prototypes are low-frequency random fields: white noise
    on a ``coarse``x``coarse`` grid, bilinearly upsampled, then
    normalised to unit standard deviation so class separation is set
    purely by the sampling noise level.
    """
    c, h, w = image_shape
    protos = np.empty((num_classes, prototypes_per_class, c, h, w), dtype=np.float64)
    zoom_h = h / coarse
    zoom_w = w / coarse
    for cls in range(num_classes):
        for k in range(prototypes_per_class):
            for ch in range(c):
                field = rng.normal(size=(coarse, coarse))
                smooth = _bilinear_zoom(field, zoom_h, zoom_w)
                smooth = smooth[:h, :w]
                std = smooth.std()
                if std < 1e-9:
                    std = 1.0
                protos[cls, k, ch] = (smooth - smooth.mean()) / std
    return protos


def _random_shift(image: np.ndarray, max_shift: int, rng: np.random.Generator) -> np.ndarray:
    """Translate an image by up to ``max_shift`` pixels (zero fill)."""
    if max_shift == 0:
        return image
    dy = int(rng.integers(-max_shift, max_shift + 1))
    dx = int(rng.integers(-max_shift, max_shift + 1))
    if dy == 0 and dx == 0:
        return image
    shifted = np.zeros_like(image)
    h, w = image.shape[-2:]
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    shifted[..., ys, xs] = image[..., ys_src, xs_src]
    return shifted


def make_image_classification(
    n_train: int,
    n_test: int,
    num_classes: int,
    image_shape: tuple[int, int, int] = (1, 14, 14),
    noise_std: float = 0.5,
    prototypes_per_class: int = 1,
    max_shift: int = 1,
    seed: int = 0,
    name: str = "synthetic",
) -> tuple[Dataset, Dataset]:
    """Build (train, test) synthetic classification datasets.

    Labels are balanced (round-robin) before shuffling so every class
    appears even in small datasets, which the non-IID partitioners
    rely on.
    """
    if n_train <= 0 or n_test <= 0:
        raise ValueError("dataset sizes must be positive")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    rng = np.random.default_rng(seed)
    protos = make_prototypes(num_classes, image_shape, prototypes_per_class, rng)

    def sample_split(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = np.arange(n) % num_classes
        rng.shuffle(labels)
        x = np.empty((n, *image_shape), dtype=np.float64)
        for i, cls in enumerate(labels):
            k = int(rng.integers(prototypes_per_class))
            img = protos[cls, k] + rng.normal(scale=noise_std, size=image_shape)
            x[i] = _random_shift(img, max_shift, rng)
        return x, labels.astype(np.int64)

    x_train, y_train = sample_split(n_train)
    x_test, y_test = sample_split(n_test)
    train = Dataset(x_train, y_train, num_classes, name=f"{name}-train")
    test = Dataset(x_test, y_test, num_classes, name=f"{name}-test")
    return train, test


def make_mnist_like(
    n_train: int = 2000,
    n_test: int = 500,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """A quick 10-class grayscale demo set, 1x14x14.

    Easier than the data runs train on: ``--dataset mnist`` and every
    study synthesise from ``repro.experiments.runner.DATASET_PROFILES``
    (MNIST noise 1.35 against this set's 0.45), not from this builder.
    """
    return make_image_classification(
        n_train,
        n_test,
        num_classes=10,
        image_shape=(1, 14, 14),
        noise_std=0.45,
        prototypes_per_class=1,
        max_shift=1,
        seed=seed,
        name="mnist-like",
    )
