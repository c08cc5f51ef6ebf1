"""Weight initialisation schemes for :mod:`repro.nn` layers.

Each initialiser takes a target shape and a ``numpy.random.Generator``
and returns a freshly allocated ``float64`` array.  All layers in this
package draw their initial weights through these functions so that a
model built twice from the same seed is bit-identical — a property the
federated-learning engines rely on when cloning the global model onto
every client.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["zeros", "kaiming_uniform"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight tensor.

    Linear weights are ``(out_features, in_features)``; convolution
    weights are ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_c, in_c, kh, kw = shape
        receptive = kh * kw
        return in_c * receptive, out_c * receptive
    if len(shape) == 1:
        return shape[0], shape[0]
    raise ValueError(f"unsupported weight shape {shape!r}")


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zero initialiser (used for biases)."""
    del rng
    return np.zeros(shape, dtype=np.float64)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) uniform initialiser, suited to ReLU networks."""
    fan_in, _ = _fan_in_out(shape)
    bound = math.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)
