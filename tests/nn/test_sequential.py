"""Tests for the Sequential container and flat-parameter plumbing."""

import numpy as np
import pytest

from repro.nn import SGD, SoftmaxCrossEntropy, Sequential
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU, ResidualBlock
from repro.nn.models import (
    build_mlp,
    build_mnist_cnn,
    build_resnet_mini,
    build_vgg_mini,
)


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Sequential([], (4,))

    def test_output_shape_propagates(self, rng):
        model = Sequential(
            [Flatten(), Linear(36, 8, rng), ReLU(), Linear(8, 3, rng)],
            input_shape=(1, 6, 6),
        )
        assert model.output_shape == (3,)

    def test_bad_wiring_fails_eagerly(self, rng):
        with pytest.raises(ValueError):
            Sequential([Flatten(), Linear(10, 8, rng)], input_shape=(1, 6, 6))


class TestFlatParams:
    def test_roundtrip(self, tiny_model):
        # get_flat_params returns the live backing buffer, so snapshot
        # before overwriting the model.
        vec = tiny_model.get_flat_params().copy()
        assert vec.shape == (tiny_model.num_params,)
        tiny_model.set_flat_params(vec * 2.0)
        np.testing.assert_allclose(tiny_model.get_flat_params(), vec * 2.0)

    def test_get_is_zero_copy(self, tiny_model):
        vec = tiny_model.get_flat_params()
        assert vec is tiny_model.get_flat_params()
        for p in tiny_model.parameters():
            assert np.shares_memory(vec, p.data)

    def test_set_wrong_size_raises(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.set_flat_params(np.zeros(3))

    def test_set_does_not_alias(self, tiny_model):
        vec = np.ones(tiny_model.num_params)
        tiny_model.set_flat_params(vec)
        vec[0] = 99.0
        assert tiny_model.get_flat_params()[0] == 1.0

    def test_grads_roundtrip(self, tiny_model, rng, tiny_shape):
        x = rng.normal(size=(4, *tiny_shape))
        y = rng.integers(0, 4, 4)
        loss_fn = SoftmaxCrossEntropy()
        tiny_model.zero_grad()
        loss_fn.forward(tiny_model.forward(x, training=True), y)
        tiny_model.backward(loss_fn.backward())
        grads = tiny_model.get_flat_grads().copy()
        assert grads.shape == (tiny_model.num_params,)
        assert np.linalg.norm(grads) > 0
        tiny_model.set_flat_grads(grads * 3.0)
        np.testing.assert_allclose(tiny_model.get_flat_grads(), grads * 3.0)

    def test_identical_seeds_identical_params(self, tiny_model_fn):
        a = tiny_model_fn().get_flat_params()
        b = tiny_model_fn().get_flat_params()
        np.testing.assert_array_equal(a, b)


class TestTraining:
    def test_loss_decreases(self, tiny_model, tiny_train, rng):
        loss_fn = SoftmaxCrossEntropy()
        opt = SGD(tiny_model.parameters(), lr=0.1)
        losses = []
        for _ in range(20):
            tiny_model.zero_grad()
            loss = loss_fn.forward(
                tiny_model.forward(tiny_train.x, training=True), tiny_train.y
            )
            tiny_model.backward(loss_fn.backward())
            opt.step()
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.5

    def test_predict_shape(self, tiny_model, tiny_test):
        preds = tiny_model.predict(tiny_test.x)
        assert preds.shape == (len(tiny_test),)
        assert preds.min() >= 0
        assert preds.max() < 4


class TestFlops:
    def test_mlp_flops(self):
        model = build_mlp((1, 4, 4), 3, hidden=(8,), seed=0)
        assert model.flops_per_sample() == 16 * 8 + 8 * 3

    def test_zero_grad_clears(self, tiny_model, rng, tiny_shape):
        loss_fn = SoftmaxCrossEntropy()
        x = rng.normal(size=(2, *tiny_shape))
        loss_fn.forward(tiny_model.forward(x, training=True), np.array([0, 1]))
        tiny_model.backward(loss_fn.backward())
        tiny_model.zero_grad()
        assert np.all(tiny_model.get_flat_grads() == 0.0)


NEED_INPUT_MODELS = {
    "mnist_cnn": lambda: build_mnist_cnn((1, 8, 8), 4, channels=(3, 4), hidden=8, seed=3),
    "mlp": lambda: build_mlp((1, 6, 6), 4, hidden=(12,), seed=3),
    "resnet_mini": lambda: build_resnet_mini((3, 8, 8), 4, width=4, num_blocks=1, seed=3),
    "vgg_mini": lambda: build_vgg_mini((3, 8, 8), 4, widths=(3, 4), hidden=8, seed=3),
}


def _one_step(model, x, y, **backward_kwargs):
    loss_fn = SoftmaxCrossEntropy()
    model.zero_grad()
    loss_fn.forward(model.forward(x, training=True), y)
    return model.backward(loss_fn.backward(), **backward_kwargs)


class TestNeedInput:
    """A training step never reads the input gradient; skipping it
    must leave every parameter gradient bit-equal."""

    @pytest.mark.parametrize("name", sorted(NEED_INPUT_MODELS))
    def test_flat_grads_bit_equal_and_result_none(self, name, rng):
        full, lean = NEED_INPUT_MODELS[name](), NEED_INPUT_MODELS[name]()
        for n in (5, 2, 5):  # ragged batches reuse the workspaces
            x = rng.normal(size=(n, *full.input_shape))
            y = rng.integers(0, 4, size=n)
            grad_in = _one_step(full, x, y)
            assert grad_in.shape == x.shape
            assert _one_step(lean, x, y, need_input=False) is None
            assert np.array_equal(lean.get_flat_grads(), full.get_flat_grads())
            assert np.any(full.get_flat_grads() != 0.0)

    @pytest.mark.parametrize("name", sorted(NEED_INPUT_MODELS))
    def test_default_keeps_the_input_gradient(self, name, rng):
        model = NEED_INPUT_MODELS[name]()
        x = rng.normal(size=(3, *model.input_shape))
        y = rng.integers(0, 4, size=3)
        default = np.array(_one_step(model, x, y))
        explicit = np.array(_one_step(model, x, y, need_input=True))
        np.testing.assert_array_equal(default, explicit)
        assert np.any(default != 0.0)

    def test_stops_at_first_trainable_layer(self, rng):
        model = build_mlp((1, 6, 6), 4, hidden=(12,), seed=3)
        assert isinstance(model.layers[0], Flatten)
        assert model._first_trainable == 1
        assert build_mnist_cnn((1, 8, 8), 4, channels=(3, 4), hidden=8)._first_trainable == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: (Linear(6, 3, r), (4, 6)),
            lambda r: (Conv2d(2, 3, 3, r, padding=1), (4, 2, 5, 5)),
            lambda r: (ResidualBlock(2, r), (4, 2, 5, 5)),
        ],
        ids=["linear", "conv", "residual"],
    )
    def test_trainable_layers_skip_only_the_input_gradient(self, make, rng):
        layer, shape = make(np.random.default_rng(0))
        x = rng.normal(size=shape)
        grad_out = rng.normal(size=layer.forward(x, training=True).shape)
        assert layer.backward(grad_out) is not None
        want = [p.grad.copy() for p in layer.parameters()]
        layer.zero_grad()
        layer.forward(x, training=True)
        assert layer.backward(grad_out, need_input=False) is None
        for p, grad in zip(layer.parameters(), want):
            assert np.array_equal(p.grad, grad)
        # The step is over: a second backward has nothing cached.
        with pytest.raises(RuntimeError):
            layer.backward(grad_out)
