"""Loss functions.

Every loss exposes ``forward(predictions, targets) -> float`` and
``backward() -> grad_wrt_predictions``, mirroring the layer interface.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_softmax", "SoftmaxCrossEntropy"]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class SoftmaxCrossEntropy:
    """Mean cross-entropy over a batch of integer-labelled logits."""

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Return the mean cross-entropy loss.

        ``logits`` is (N, C); ``targets`` is (N,) integer class labels.
        """
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        targets = np.asarray(targets)
        if targets.shape != (logits.shape[0],):
            raise ValueError(
                f"targets shape {targets.shape} does not match batch {logits.shape[0]}"
            )
        if targets.min(initial=0) < 0 or targets.max(initial=0) >= logits.shape[1]:
            raise ValueError("target label out of range")
        log_p = log_softmax(logits)
        self._probs = np.exp(log_p)
        self._targets = targets
        n = logits.shape[0]
        return float(-log_p[np.arange(n), targets].mean())

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits."""
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._targets] -= 1.0
        grad /= n
        self._probs = None
        self._targets = None
        return grad
