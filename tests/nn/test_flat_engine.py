"""Invariants of the zero-copy flat-parameter engine.

Every model preset must satisfy the backing-buffer/view contract
documented in docs/architecture.md ("Parameter memory model"):

* ``get_flat_params()`` / ``get_flat_grads()`` are O(1) accessors that
  share memory with every ``Parameter.data`` / ``Parameter.grad``;
* optimiser steps through the per-layer views produce bit-for-bit the
  same trajectory as dense flat-vector arithmetic;
* the setters copy, so foreign vectors are never aliased;
* a pickle holds each backing buffer once, and the views alias the
  buffers again after loading.
"""

import functools
import pickle

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import build_mlp, build_mnist_cnn, build_resnet_mini, build_vgg_mini
from repro.nn.optim import SGD

# (name, input_shape, num_classes, builder kwargs) — small geometries
# of every preset in the zoo.
PRESETS = [
    ("logistic", (1, 6, 6), 4, {}),
    ("mlp", (1, 6, 6), 4, {"hidden": (12,)}),
    ("mnist_cnn", (1, 8, 8), 4, {"channels": (4, 6), "hidden": 16}),
    ("resnet_mini", (3, 8, 8), 4, {"width": 4, "num_blocks": 1}),
    ("vgg_mini", (3, 8, 8), 4, {"widths": (4, 6), "hidden": 8}),
    ("resnet_mini", (3, 8, 8), 4, {"width": 4, "num_blocks": 1, "head": "gap"}),
]


BUILDERS = {
    "logistic": functools.partial(build_mlp, hidden=()),  # no hidden layer
    "mlp": build_mlp,
    "mnist_cnn": build_mnist_cnn,
    "resnet_mini": build_resnet_mini,
    "vgg_mini": build_vgg_mini,
}


def _build(name, shape, classes, kwargs, seed=0):
    return BUILDERS[name](shape, classes, seed=seed, **kwargs)


@pytest.mark.parametrize("name,shape,classes,kwargs", PRESETS)
class TestFlatViews:
    def test_params_share_memory_with_buffer(self, name, shape, classes, kwargs):
        model = _build(name, shape, classes, kwargs)
        flat = model.get_flat_params()
        grads = model.get_flat_grads()
        assert flat.size == model.num_params
        offset = 0
        for p in model.parameters():
            assert np.shares_memory(flat, p.data), p.name
            assert np.shares_memory(grads, p.grad), p.name
            # The view sits at the parameter's flat offset.
            np.testing.assert_array_equal(
                flat[offset : offset + p.size], p.data.ravel()
            )
            offset += p.size
        assert offset == flat.size

    def test_getters_are_o1_no_copy(self, name, shape, classes, kwargs):
        model = _build(name, shape, classes, kwargs)
        assert model.get_flat_params() is model.get_flat_params()
        assert model.get_flat_grads() is model.get_flat_grads()

    def test_view_mutation_is_visible_flat(self, name, shape, classes, kwargs):
        model = _build(name, shape, classes, kwargs)
        p = model.parameters()[0]
        p.data.flat[0] = 1234.5
        assert model.get_flat_params()[0] == 1234.5
        model.get_flat_grads()[...] = 1.0
        assert float(p.grad.ravel()[0]) == 1.0

    def test_set_never_aliases_foreign_vector(self, name, shape, classes, kwargs):
        model = _build(name, shape, classes, kwargs)
        foreign = np.arange(model.num_params, dtype=np.float64)
        model.set_flat_params(foreign)
        assert not np.shares_memory(model.get_flat_params(), foreign)
        foreign[:] = -1.0
        assert model.get_flat_params()[0] == 0.0
        gforeign = np.ones(model.num_params)
        model.set_flat_grads(gforeign)
        assert not np.shares_memory(model.get_flat_grads(), gforeign)

    def test_flat_parameter_wraps_buffers(self, name, shape, classes, kwargs):
        model = _build(name, shape, classes, kwargs)
        flat_p = model.flat_parameter()
        assert flat_p.data is model.get_flat_params()
        assert flat_p.grad is model.get_flat_grads()

    def test_pickle_holds_each_buffer_once(self, name, shape, classes, kwargs):
        model = _build(name, shape, classes, kwargs)
        model.get_flat_grads()[...] = 0.5
        blob = pickle.dumps(model)
        assert len(blob) <= 2 * 8 * model.num_params + 4096
        clone = pickle.loads(blob)
        flat, grads = clone.get_flat_params(), clone.get_flat_grads()
        np.testing.assert_array_equal(flat, model.get_flat_params())
        np.testing.assert_array_equal(grads, model.get_flat_grads())
        assert clone.flat_parameter().data is flat
        assert clone.flat_parameter().grad is grads
        offset = 0
        for p in clone.parameters():
            assert np.shares_memory(flat, p.data), p.name
            assert np.shares_memory(grads, p.grad), p.name
            np.testing.assert_array_equal(flat[offset:offset + p.size], p.data.ravel())
            offset += p.size
        flat[...] = 3.0
        assert all(np.all(p.data == 3.0) for p in clone.parameters())

    def test_sgd_trajectory_matches_dense_reference(
        self, name, shape, classes, kwargs
    ):
        """View-based optimiser steps == dense flat arithmetic, bitwise.

        The reference replays the exact pre-refactor update rule on an
        independent dense vector: v = mom*v + (g + wd*w); w -= lr*v.
        """
        rng = np.random.default_rng(7)
        model = _build(name, shape, classes, kwargs)
        lr, mom, wd = 0.05, 0.9, 1e-4
        opt = SGD([model.flat_parameter()], lr=lr, momentum=mom, weight_decay=wd)
        loss_fn = SoftmaxCrossEntropy()

        w_ref = model.get_flat_params().copy()
        v_ref = np.zeros_like(w_ref)
        for _ in range(3):
            x = rng.normal(size=(4, *shape))
            y = rng.integers(0, classes, 4)
            model.zero_grad()
            loss_fn.forward(model.forward(x, training=True), y)
            model.backward(loss_fn.backward())

            g = model.get_flat_grads().copy()
            v_ref = mom * v_ref + (g + wd * w_ref)
            w_ref = w_ref - lr * v_ref

            opt.step()
            np.testing.assert_array_equal(model.get_flat_params(), w_ref)
