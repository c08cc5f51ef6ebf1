"""Tests for the model zoo."""

import numpy as np
import pytest

from repro.experiments.presets import FAST
from repro.experiments.runner import _MODEL_BUILDERS, MODELS, FederationSpec
from repro.nn.gradcheck import check_model_gradients
from repro.nn.models import (
    build_mlp,
    build_mnist_cnn,
    build_resnet_mini,
    build_vgg_mini,
)


class TestMnistCnn:
    def test_paper_architecture_channel_counts(self):
        """With default channels the two convs have 20 and 50 filters (§III-B)."""
        model = build_mnist_cnn((1, 28, 28), 10)
        convs = [l for l in model.layers if type(l).__name__ == "Conv2d"]
        assert [c.out_channels for c in convs] == [20, 50]
        assert all(c.kernel_size == 5 for c in convs)

    def test_paper_size_on_mnist_geometry(self):
        """Paper-exact geometry lands near the paper's 1.64MB dense gradient."""
        model = build_mnist_cnn(
            (1, 28, 28), 10, channels=(20, 50), hidden=500, same_padding=False
        )
        mb = model.num_params * 4 / 1024 / 1024
        assert 1.4 < mb < 1.9

    def test_too_small_for_valid_convs_raises(self):
        with pytest.raises(ValueError):
            build_mnist_cnn((1, 10, 10), 10, same_padding=False)

    def test_forward_shape(self):
        model = build_mnist_cnn((1, 12, 12), 10, channels=(4, 8), hidden=16, seed=0)
        out = model.forward(np.zeros((3, 1, 12, 12)))
        assert out.shape == (3, 10)

    def test_gradients_correct(self, rng):
        model = build_mnist_cnn((1, 8, 8), 3, channels=(2, 3), hidden=6, seed=0)
        x = rng.normal(size=(2, 1, 8, 8))
        y = np.array([0, 2])
        assert check_model_gradients(model, x, y) < 1e-6

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            build_mnist_cnn((1, 3, 3), 10)


class TestResNetMini:
    def test_forward_shape(self):
        model = build_resnet_mini((3, 8, 8), 10, width=4, num_blocks=1, seed=0)
        assert model.forward(np.zeros((2, 3, 8, 8))).shape == (2, 10)

    def test_has_residual_blocks(self):
        model = build_resnet_mini((3, 8, 8), 10, width=4, num_blocks=2, seed=0)
        blocks = [l for l in model.layers if type(l).__name__ == "ResidualBlock"]
        assert len(blocks) == 2

    def test_gradients_correct(self, rng):
        model = build_resnet_mini((2, 6, 6), 3, width=3, num_blocks=1, seed=0)
        x = rng.normal(size=(2, 2, 6, 6))
        y = np.array([1, 2])
        assert check_model_gradients(model, x, y) < 1e-6


class TestVggMini:
    def test_forward_shape(self):
        model = build_vgg_mini((3, 8, 8), 100, widths=(4, 8), hidden=16, seed=0)
        assert model.forward(np.zeros((2, 3, 8, 8))).shape == (2, 100)

    def test_stacked_3x3_convs(self):
        model = build_vgg_mini((3, 8, 8), 10, widths=(4, 8), hidden=16, seed=0)
        convs = [l for l in model.layers if type(l).__name__ == "Conv2d"]
        assert len(convs) == 4
        assert all(c.kernel_size == 3 for c in convs)

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            build_vgg_mini((3, 3, 3), 10)


class TestSimpleModels:
    def test_logistic(self):
        # No hidden layer: multinomial logistic regression.
        model = build_mlp((1, 4, 4), 5, hidden=(), seed=0)
        assert [type(l).__name__ for l in model.layers] == ["Flatten", "Linear"]
        assert model.forward(np.zeros((2, 1, 4, 4))).shape == (2, 5)

    def test_mlp_hidden_stack(self):
        model = build_mlp((1, 4, 4), 3, hidden=(8, 6), seed=0)
        linears = [l for l in model.layers if type(l).__name__ == "Linear"]
        assert [l.out_features for l in linears] == [8, 6, 3]


class TestRegistry:
    """The by-name registry every run resolves its model through."""

    def test_all_builders_run(self):
        for name in MODELS:
            model = _MODEL_BUILDERS[name]((3, 8, 8), 4, FAST, 0)
            assert model.num_params > 0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model 'resnet50'; known: "):
            FederationSpec(model="resnet50")

    def test_seed_controls_init(self):
        build = _MODEL_BUILDERS["mlp"]
        a = build((1, 4, 4), 3, FAST, 1).get_flat_params()
        b = build((1, 4, 4), 3, FAST, 1).get_flat_params()
        c = build((1, 4, 4), 3, FAST, 2).get_flat_params()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
