"""Gradient checks and behavioural tests for every layer."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.gradcheck import max_relative_error, numerical_gradient
from repro.nn.layers import (
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Parameter,
    ReLU,
    ResidualBlock,
)
from repro.nn.losses import SoftmaxCrossEntropy

from tests.nn.layout_digest_cases import CASES as LAYOUT_CASES
from tests.nn.window_reference import (
    assert_bit_equal,
    maxpool_columns,
    maxpool_columns_backward,
    signed_values,
)

GRAD_TOL = 1e-6


def assert_same_memory_order(a, x):
    """``a`` is packed in the memory order of (N, C, H, W) ``x``: C order
    for a C-ordered input, NHWC for an NHWC-memory one (both, when a
    size-1 axis makes the two the same)."""
    if x.flags.c_contiguous:
        assert a.flags.c_contiguous
    if x.transpose(0, 2, 3, 1).flags.c_contiguous:
        assert a.transpose(0, 2, 3, 1).flags.c_contiguous


def layer_gradcheck(layer, x, rng):
    """Check d(sum of weighted outputs)/dx and d/dparams via finite differences."""
    out = layer.forward(x, training=True)
    w = rng.normal(size=out.shape)  # random linear functional of the output
    grad_in = layer.backward(w)

    def loss(inp=None):
        return float(np.sum(layer.forward(x, training=False) * w))

    num_grad_x = numerical_gradient(loss, x)
    assert max_relative_error(grad_in, num_grad_x) < GRAD_TOL

    for p in layer.parameters():
        analytic = p.grad.copy()
        num = numerical_gradient(loss, p.data)
        assert max_relative_error(analytic, num) < GRAD_TOL, p.name


class TestParameter:
    def test_zero_grad(self, rng):
        p = Parameter("w", rng.normal(size=(3, 3)))
        p.grad += 1.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_size(self):
        assert Parameter("w", np.zeros((2, 5))).size == 10

    def test_pickles_its_own_arrays(self, rng):
        p = Parameter("w", rng.normal(size=(3, 4)))
        p.grad += 2.0
        clone = pickle.loads(pickle.dumps(p))
        assert clone.name == "w"
        np.testing.assert_array_equal(clone.data, p.data)
        np.testing.assert_array_equal(clone.grad, p.grad)

    def test_views_of_one_buffer_pickle_it_once(self, rng):
        buf, gbuf = rng.normal(size=20), np.zeros(20)
        params = [
            Parameter.from_views("a", buf[:12].reshape(3, 4), gbuf[:12].reshape(3, 4)),
            Parameter.from_views("b", buf[12:], gbuf[12:]),
        ]
        clone_a, clone_b = pickle.loads(pickle.dumps(params))
        assert clone_a.data.base is clone_b.data.base
        np.testing.assert_array_equal(clone_a.data.base, buf)
        np.testing.assert_array_equal(clone_b.data, buf[12:])
        assert clone_a.grad.shape == (3, 4) and clone_a.grad.base is clone_b.grad.base

    def test_strided_view_pickles_as_a_copy(self, rng):
        buf = rng.normal(size=(4, 6))
        p = Parameter.from_views("w", buf[:, ::2], np.zeros((4, 3)))
        clone = pickle.loads(pickle.dumps(p))
        np.testing.assert_array_equal(clone.data, buf[:, ::2])


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(6, 4, rng)
        assert layer.forward(rng.normal(size=(3, 6))).shape == (3, 4)

    def test_forward_matches_matmul(self, rng):
        layer = Linear(5, 2, rng)
        x = rng.normal(size=(4, 5))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_gradcheck(self, rng):
        layer = Linear(4, 3, rng)
        layer_gradcheck(layer, rng.normal(size=(2, 4)), rng)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert len(layer.parameters()) == 1

    def test_wrong_input_raises(self, rng):
        layer = Linear(4, 3, rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(2, 5)))

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(4, 3, rng)
        with pytest.raises(RuntimeError):
            layer.backward(rng.normal(size=(2, 3)))

    def test_flops(self, rng):
        assert Linear(4, 3, rng).flops((4,)) == 12


class TestConv2d:
    def test_forward_shape(self, rng):
        layer = Conv2d(2, 5, 3, rng)
        assert layer.forward(rng.normal(size=(2, 2, 6, 6))).shape == (2, 5, 4, 4)

    def test_same_padding_shape(self, rng):
        layer = Conv2d(1, 4, 5, rng, padding=2)
        assert layer.forward(rng.normal(size=(1, 1, 8, 8))).shape == (1, 4, 8, 8)

    def test_matches_naive_convolution(self, rng):
        layer = Conv2d(1, 1, 2, rng, bias=False)
        x = rng.normal(size=(1, 1, 3, 3))
        out = layer.forward(x)
        k = layer.weight.data[0, 0]
        for i in range(2):
            for j in range(2):
                expected = float(np.sum(x[0, 0, i : i + 2, j : j + 2] * k))
                assert abs(out[0, 0, i, j] - expected) < 1e-12

    def test_gradcheck(self, rng):
        layer = Conv2d(2, 3, 3, rng, padding=1)
        layer_gradcheck(layer, rng.normal(size=(2, 2, 4, 4)), rng)

    def test_gradcheck_strided(self, rng):
        layer = Conv2d(1, 2, 2, rng, stride=2)
        layer_gradcheck(layer, rng.normal(size=(2, 1, 4, 4)), rng)

    def test_output_shape_validates_channels(self, rng):
        layer = Conv2d(3, 4, 3, rng)
        with pytest.raises(ValueError):
            layer.output_shape((2, 6, 6))

    def test_flops(self, rng):
        layer = Conv2d(2, 4, 3, rng)
        # 4x4 output positions, each 2*3*3 MACs per output channel.
        assert layer.flops((2, 6, 6)) == 2 * 9 * 4 * 16


class TestMaxPool2d:
    def test_forward_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_gradcheck(self, rng):
        layer_gradcheck(MaxPool2d(2), rng.normal(size=(2, 2, 4, 4)), rng)

    def test_backward_routes_to_max_only(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer = MaxPool2d(2)
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[10.0]]]]))
        np.testing.assert_allclose(grad, [[[[0, 0], [0, 10.0]]]])

    def test_tie_break_routes_once(self):
        x = np.ones((1, 1, 2, 2))
        layer = MaxPool2d(2)
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[1.0]]]]))
        assert grad.sum() == 1.0  # exactly one winner despite the tie


@st.composite
def pool_cases(draw):
    """(input, kernel, stride): overlap, exact and floor tiling, stride
    past the kernel; values from a 3-level grid so windows tie often;
    optionally the NHWC-memory view a Conv2d + ReLU hands to a pool."""
    kernel = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 5))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(kernel, 9)), draw(st.integers(kernel, 9))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        values = rng.integers(-1, 2, size=(n, h, w, c)).astype(np.float64)
    else:
        values = signed_values(seed, (n, h, w, c))
    if draw(st.booleans()):
        x = values.transpose(0, 3, 1, 2)
    else:
        x = np.ascontiguousarray(values.transpose(0, 3, 1, 2))
    return x, kernel, stride


class TestPoolingLaws:
    """Plane-wise pooling against the column-expansion layers it replaced
    (kept in ``tests/nn/window_reference.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(case=pool_cases(), seed=st.integers(0, 2**16))
    def test_maxpool_matches_column_oracle(self, case, seed):
        x, kernel, stride = case
        layer = MaxPool2d(kernel, stride)
        out = layer.forward(x, training=True)
        want_out, mask = maxpool_columns(x, kernel, stride)
        assert_same_memory_order(out, x)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(layer.forward(x), want_out)
        grad_out = signed_values(seed, out.shape)
        grad_in = layer.backward(grad_out)
        assert_same_memory_order(grad_in, x)
        assert_bit_equal(
            grad_in, maxpool_columns_backward(mask, grad_out, x.shape, kernel, stride)
        )

    @given(value=st.floats(-5, 5), kernel=st.integers(1, 3))
    def test_constant_window_routes_to_first_element(self, value, kernel):
        layer = MaxPool2d(kernel)
        layer.forward(np.full((1, 1, kernel, kernel), value), training=True)
        grad = layer.backward(np.array([[[[7.0]]]]))
        want = np.zeros((kernel, kernel))
        want[0, 0] = 7.0
        np.testing.assert_array_equal(grad[0, 0], want)

    def test_partial_tie_routes_to_first_maximal_in_ij_order(self):
        x = np.array([[[[1.0, 3.0, 0.0], [3.0, 3.0, 0.0], [0.0, 0.0, 0.0]]]])
        layer = MaxPool2d(2, stride=1)
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[1.0, 10.0], [100.0, 1000.0]]]]))
        # Window maxima are all 3.0; the first 3.0 in (i, j) order is
        # (0, 1) for the top-left window, (0, 0) for the others.
        want = np.array([[0.0, 11.0, 0.0], [100.0, 1000.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(grad[0, 0], want)

    @settings(max_examples=60, deadline=None)
    @given(case=pool_cases())
    def test_each_output_gradient_lands_on_exactly_one_input(self, case):
        x, kernel, stride = case
        layer = MaxPool2d(kernel, stride)
        out = layer.forward(x, training=True)
        masks = layer._masks
        assert masks.shape == (kernel * kernel,) + out.shape
        np.testing.assert_array_equal(masks.sum(axis=0), np.ones(out.shape))
        # Powers of two: the input gradient's sum is exact.
        grad_out = np.exp2(np.arange(out.size, dtype=np.float64) % 40).reshape(out.shape)
        assert layer.backward(grad_out).sum() == grad_out.sum()

    def test_negative_zero_upstream_lands_as_positive_zero(self):
        layer = MaxPool2d(2)
        layer.forward(np.arange(16.0).reshape(1, 1, 4, 4), training=True)
        grad = layer.backward(np.full((1, 1, 2, 2), -0.0))
        assert not grad.any() and not np.signbit(grad).any()

    def test_inf_upstream_is_nan_at_masked_out_positions(self):
        x = np.array([[[[1.0, 2.0], [4.0, 3.0]]]])
        layer = MaxPool2d(2)
        layer.forward(x, training=True)
        grad_out = np.array([[[[np.inf]]]])
        grad = layer.backward(grad_out)
        _, mask = maxpool_columns(x, 2, 2)
        assert_bit_equal(grad, maxpool_columns_backward(mask, grad_out, x.shape, 2, 2))
        # False * inf is nan everywhere but the winner.
        np.testing.assert_array_equal(np.isnan(grad[0, 0]), [[True, True], [False, True]])
        assert grad[0, 0, 1, 0] == np.inf

    def test_nan_window_routes_like_the_oracle(self):
        x = np.array([[[[1.0, 5.0], [np.nan, 3.0]]]])
        layer = MaxPool2d(2)
        out = layer.forward(x, training=True)
        want_out, mask = maxpool_columns(x, 2, 2)
        np.testing.assert_array_equal(out, want_out)
        grad_out = np.array([[[[2.0]]]])
        np.testing.assert_array_equal(
            layer.backward(grad_out),
            maxpool_columns_backward(mask, grad_out, x.shape, 2, 2),
        )

    @pytest.mark.parametrize("layer_type", [MaxPool2d])
    def test_floor_tiled_trailing_rows_get_positive_zero(self, layer_type, rng):
        layer = layer_type(2)
        layer.forward(rng.normal(size=(2, 2, 5, 7)), training=True)
        grad = layer.backward(-np.abs(rng.normal(size=(2, 2, 2, 3))))
        for edge in (grad[:, :, 4:, :], grad[:, :, :, 6:]):
            assert not edge.any() and not np.signbit(edge).any()

    @pytest.mark.parametrize("layer_type", [MaxPool2d])
    def test_ragged_batches_reuse_the_gradient_buffer(self, layer_type, rng):
        layer = layer_type(2)
        where = set()
        for n in (20, 7, 20):
            x = rng.normal(size=(n, 3, 6, 6))
            layer.forward(x, training=True)
            grad = layer.backward(rng.normal(size=(n, 3, 3, 3)))
            assert grad.shape == (n, 3, 6, 6)
            assert_same_memory_order(grad, x)
            where.add(grad.__array_interface__["data"][0])
        assert len(where) == 1

    @pytest.mark.parametrize("layer_type", [MaxPool2d])
    def test_backward_before_forward_raises(self, layer_type):
        with pytest.raises(RuntimeError):
            layer_type(2).backward(np.zeros((1, 1, 1, 1)))


class TestGlobalAvgPool2d:
    def test_forward(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(
            GlobalAvgPool2d().forward(x), x.mean(axis=(2, 3))
        )

    def test_gradcheck(self, rng):
        layer_gradcheck(GlobalAvgPool2d(), rng.normal(size=(2, 3, 3, 3)), rng)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])

    def test_relu_gradcheck(self, rng):
        # Keep inputs away from the kink at 0.
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.1] = 0.5
        layer_gradcheck(ReLU(), x, rng)


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


class TestResidualBlock:
    def test_preserves_shape(self, rng):
        block = ResidualBlock(3, rng)
        x = rng.normal(size=(2, 3, 5, 5))
        assert block.forward(x).shape == x.shape

    def test_gradcheck(self, rng):
        block = ResidualBlock(2, rng)
        layer_gradcheck(block, rng.normal(size=(1, 2, 4, 4)), rng)

    def test_has_two_convs_of_params(self, rng):
        block = ResidualBlock(4, rng)
        assert len(block.parameters()) == 4  # 2 weights + 2 biases

    def test_flops_positive(self, rng):
        assert ResidualBlock(2, rng).flops((2, 4, 4)) > 0


# ---------------------------------------------------------------------------
# Memory order: layers follow their input's layout, values never depend on it
# ---------------------------------------------------------------------------


def _packed(values, permuted):
    """``values`` packed in C order, or permuted: NHWC memory behind an
    (N, C, H, W) view for 4-D arrays, F order for 2-D ones."""
    if not permuted:
        return np.ascontiguousarray(values)
    if values.ndim == 2:
        return np.asfortranarray(values)
    return np.ascontiguousarray(values.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@st.composite
def layout_cases(draw):
    """(layer factory, input shape, seed) for every layer a zoo conv block
    chains, single-sample batches included."""
    kind = draw(st.sampled_from(["conv", "relu", "maxpool", "flatten", "residual"]))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h, w = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    seed = draw(st.integers(0, 2**16))
    if kind == "conv":
        oc, kernel = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 1))

        def make():
            return Conv2d(c, oc, kernel, np.random.default_rng(seed),
                          stride=stride, padding=padding)
    elif kind == "maxpool":
        kernel, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))

        def make():
            return MaxPool2d(kernel, stride)
    elif kind == "residual":
        def make():
            return ResidualBlock(c, np.random.default_rng(seed))
    else:
        make = {"relu": ReLU, "flatten": Flatten}[kind]
    return make, (n, c, h, w), seed


@settings(max_examples=150, deadline=None)
@given(case=layout_cases(), x_permuted=st.booleans(), g_permuted=st.booleans())
def test_layers_give_the_same_bits_in_either_memory_order(case, x_permuted, g_permuted):
    make, shape, seed = case
    values = signed_values(seed, shape)
    runs = []
    for permute_x, permute_g in ((False, False), (x_permuted, g_permuted)):
        layer = make()
        out = layer.forward(_packed(values, permute_x), training=True)
        grad_out = _packed(signed_values(seed + 1, out.shape), permute_g)
        grad_in = layer.backward(grad_out)
        runs.append((out, grad_in, [p.grad for p in layer.parameters()]))
    (out, grad_in, grads), (out2, grad_in2, grads2) = runs
    assert_bit_equal(out2, out)
    assert_bit_equal(grad_in2, grad_in)
    for grad, grad2 in zip(grads, grads2):
        assert_bit_equal(grad2, grad)


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_conv_backward_reads_its_gradient_without_a_copy(case):
    """In a zoo model's training step every ``Conv2d.backward`` gets its
    gradient in NHWC memory, so its (N*H*W, C) matrix is a free view."""
    factory, batch = LAYOUT_CASES[case]
    model = factory()
    free = []
    for layer in model.layers:
        convs = [layer.conv1, layer.conv2] if isinstance(layer, ResidualBlock) else [layer]
        for conv in convs:
            if isinstance(conv, Conv2d):
                def spy(grad_out, need_input=True, _backward=conv.backward):
                    matrix = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1))
                    free.append(np.shares_memory(matrix, grad_out))
                    return _backward(grad_out, need_input)

                conv.backward = spy
    x = signed_values(0, (batch,) + model.input_shape)
    loss = SoftmaxCrossEntropy()
    loss.forward(model.forward(x, training=True), np.zeros(batch, dtype=np.int64))
    model.backward(loss.backward(), need_input=False)
    assert free and all(free)
