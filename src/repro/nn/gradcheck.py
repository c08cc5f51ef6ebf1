"""Numerical gradient checking for layers and whole models.

Used by the test suite to prove that every backward pass in
:mod:`repro.nn.layers` matches a central finite-difference estimate of
the analytic gradient.  Federated-learning conclusions are only as
sound as the gradients underneath them, so these checks are the
foundation of the reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.sequential import Sequential

# reprolint: allow[R506] the numerical-gradient oracle tests/nn compare every layer and model against
__all__ = ["numerical_gradient", "max_relative_error", "check_model_gradients"]


def numerical_gradient(func, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = func()
        flat[i] = orig - eps
        f_minus = func()
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case elementwise relative error between two gradients."""
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_model_gradients(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Return the max relative error over all parameters of ``model``.

    Runs a forward/backward pass with softmax cross-entropy and
    compares every parameter gradient against finite differences.
    """
    loss_fn = SoftmaxCrossEntropy()

    def loss_value() -> float:
        logits = model.forward(x, training=False)
        return loss_fn_probe.forward(logits, y)

    loss_fn_probe = SoftmaxCrossEntropy()

    model.zero_grad()
    logits = model.forward(x, training=True)
    loss_fn.forward(logits, y)
    model.backward(loss_fn.backward())

    worst = 0.0
    for p in model.parameters():
        analytic = p.grad.copy()
        numeric = numerical_gradient(loss_value, p.data, eps)
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst
