"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn.gradcheck import max_relative_error, numerical_gradient
from repro.nn.losses import SoftmaxCrossEntropy, log_softmax


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probs = np.exp(log_softmax(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))

    def test_stability_large_logits(self):
        probs = np.exp(log_softmax(np.array([[1000.0, 1000.0]])))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_log_softmax_consistency(self, rng):
        logits = rng.normal(size=(3, 4))
        naive = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(log_softmax(logits), np.log(naive))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss(self):
        loss = SoftmaxCrossEntropy().forward(np.zeros((2, 4)), np.array([0, 3]))
        assert abs(loss - np.log(4)) < 1e-12

    def test_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = SoftmaxCrossEntropy().forward(logits, np.array([0, 1]))
        assert loss < 1e-10

    def test_gradient_matches_numeric(self, rng):
        logits = rng.normal(size=(3, 5))
        y = np.array([1, 0, 4])
        loss_fn = SoftmaxCrossEntropy()
        loss_fn.forward(logits, y)
        analytic = loss_fn.backward()

        def f():
            return SoftmaxCrossEntropy().forward(logits, y)

        numeric = numerical_gradient(f, logits)
        assert max_relative_error(analytic, numeric) < 1e-6

    def test_gradient_sums_to_zero_per_row(self, rng):
        loss_fn = SoftmaxCrossEntropy()
        loss_fn.forward(rng.normal(size=(4, 3)), np.array([0, 1, 2, 0]))
        grad = loss_fn.backward()
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(4), atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.array([0, 3]))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.array([0]))
