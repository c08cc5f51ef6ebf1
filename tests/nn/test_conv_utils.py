"""Tests for im2col / col2im."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.conv_utils import ConvWorkspace, col2im, conv_output_size, im2col
from tests.nn.window_reference import (
    assert_bit_equal,
    col2im_reference,
    im2col_reference,
    signed_values,
)


@st.composite
def window_geometries(draw):
    """(N, C, H, W, kh, kw, stride, padding): stride 1..4 against kernels
    1..5 covers overlap, exact tiling, stride > kernel and floor tiling
    (sizes are drawn independently of the kernel), and the paper CNN's
    5x5 / padding-2 window."""
    kernel_h, kernel_w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    padding = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kernel_h - 2 * padding), 9))
    w = draw(st.integers(max(1, kernel_w - 2 * padding), 9))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w,
            kernel_h, kernel_w, draw(st.integers(1, 4)), padding)


class TestPackedKernelContract:
    """The single-pass kernel against the reference it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(geom=window_geometries(), seed=st.integers(0, 2**16),
           nhwc=st.booleans(), reuse=st.booleans())
    def test_im2col_bit_equal_to_reference(self, geom, seed, nhwc, reuse):
        n, c, h, w, kernel_h, kernel_w, stride, padding = geom
        if nhwc:
            # What Conv2d.forward emits: NHWC memory behind an NCHW view.
            x = signed_values(seed, (n, h, w, c)).transpose(0, 3, 1, 2)
        else:
            x = signed_values(seed, (n, c, h, w))
        ws = ConvWorkspace() if reuse else None
        if reuse:  # a dirty, larger-capacity workspace must not leak through
            im2col(signed_values(seed + 1, (n + 2, c, h, w)), kernel_h, kernel_w,
                   stride, padding, ws)
        got = im2col(x, kernel_h, kernel_w, stride, padding, ws)
        assert got.flags.c_contiguous
        assert_bit_equal(got, im2col_reference(x, kernel_h, kernel_w, stride, padding))

    @settings(max_examples=120, deadline=None)
    @given(geom=window_geometries(), seed=st.integers(0, 2**16),
           strided=st.booleans(), reuse=st.booleans())
    def test_col2im_bit_equal_to_reference(self, geom, seed, strided, reuse):
        n, c, h, w, kernel_h, kernel_w, stride, padding = geom
        x_shape = (n, c, h, w)
        rows, width = im2col_reference(
            np.zeros(x_shape), kernel_h, kernel_w, stride, padding
        ).shape
        if strided:
            cols = signed_values(seed, (rows, 2 * width))[:, ::2]
        else:
            cols = signed_values(seed, (rows, width))
        ws = ConvWorkspace() if reuse else None
        if reuse:
            col2im(signed_values(seed + 1, ((rows // n) * (n + 2), width)),
                   (n + 2, c, h, w), kernel_h, kernel_w, stride, padding, ws)
        got = col2im(cols, x_shape, kernel_h, kernel_w, stride, padding, ws)
        assert_bit_equal(
            got, col2im_reference(cols, x_shape, kernel_h, kernel_w, stride, padding)
        )

    def test_negative_zero_columns_land_as_positive_zero(self):
        cols = np.full((4, 4), -0.0)
        back = col2im(cols, (1, 1, 4, 4), 2, 2, stride=2)
        assert not np.signbit(back).any()

    def test_non_finite_columns_propagate(self):
        cols = np.zeros((4, 4))
        cols[1, 2] = np.inf
        cols[2, 0] = np.nan
        assert_bit_equal(
            col2im(cols, (1, 1, 4, 4), 2, 2, stride=2),
            col2im_reference(cols, (1, 1, 4, 4), 2, 2, stride=2),
        )


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(28, 5, 1, 0) == 24

    def test_with_padding(self):
        assert conv_output_size(14, 5, 1, 2) == 14  # same padding

    def test_with_stride(self):
        assert conv_output_size(8, 2, 2, 0) == 4

    def test_collapse_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        cols = im2col(x, 1, 1)
        assert cols.shape == (2 * 16, 3)
        np.testing.assert_allclose(
            cols.reshape(2, 4, 4, 3).transpose(0, 3, 1, 2), x
        )

    def test_shape_full_kernel(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        cols = im2col(x, 3, 3)
        assert cols.shape == (1, 2 * 9)
        np.testing.assert_allclose(cols.ravel(), x.ravel())

    def test_known_window_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2)
        # First window is the top-left 2x2 patch.
        np.testing.assert_allclose(cols[0], [0, 1, 4, 5])
        # Last window is the bottom-right 2x2 patch.
        np.testing.assert_allclose(cols[-1], [10, 11, 14, 15])

    def test_stride_skips_windows(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2, stride=2)
        assert cols.shape == (4, 4)
        np.testing.assert_allclose(cols[1], [2, 3, 6, 7])

    def test_padding_zeros_border(self):
        x = np.ones((1, 1, 2, 2))
        cols = im2col(x, 3, 3, padding=1)
        # Central window sees all four ones.
        assert cols.sum() == 4 * 4  # each input pixel appears in 4 windows


class TestCol2Im:
    def test_adjointness(self, rng):
        """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.normal(size=(2, 3, 5, 5))
        cols = im2col(x, 3, 3, stride=1, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        back = col2im(y, x.shape, 3, 3, stride=1, padding=1)
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) < 1e-9

    def test_roundtrip_counts_overlaps(self):
        x = np.ones((1, 1, 3, 3))
        cols = im2col(x, 2, 2)
        back = col2im(cols, x.shape, 2, 2)
        # Corner pixels belong to 1 window, edges to 2, center to 4.
        expected = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float)
        np.testing.assert_allclose(back[0, 0], expected)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        size=st.integers(3, 8),
        kernel=st.integers(1, 3),
        padding=st.integers(0, 2),
    )
    def test_adjointness_property(self, n, c, size, kernel, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, c, size, size))
        cols = im2col(x, kernel, kernel, 1, padding)
        y = rng.normal(size=cols.shape)
        back = col2im(y, x.shape, kernel, kernel, 1, padding)
        assert abs(np.sum(cols * y) - np.sum(x * back)) < 1e-8


class TestConvWorkspace:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_im2col_matches_allocating_path(self, rng, padding):
        ws = ConvWorkspace()
        x = rng.normal(size=(2, 3, 6, 6))
        np.testing.assert_array_equal(
            im2col(x, 3, 3, 1, padding, ws), im2col(x, 3, 3, 1, padding)
        )

    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_col2im_matches_allocating_path(self, rng, padding):
        ws = ConvWorkspace()
        x_shape = (2, 3, 6, 6)
        cols_shape = im2col(np.zeros(x_shape), 3, 3, 1, padding).shape
        y = rng.normal(size=cols_shape)
        np.testing.assert_array_equal(
            col2im(y, x_shape, 3, 3, 1, padding, ws),
            col2im(y, x_shape, 3, 3, 1, padding),
        )

    def test_buffers_reused_across_same_shape_calls(self, rng):
        ws = ConvWorkspace()
        x = rng.normal(size=(2, 3, 6, 6))
        first = im2col(x, 3, 3, 1, 1, ws)
        second = im2col(rng.normal(size=x.shape), 3, 3, 1, 1, ws)
        assert first is second  # steady state: zero new allocations

    def test_shape_change_reallocates_and_stays_correct(self, rng):
        ws = ConvWorkspace()
        a = rng.normal(size=(2, 3, 6, 6))
        b = rng.normal(size=(4, 3, 8, 8))
        im2col(a, 3, 3, 1, 1, ws)
        np.testing.assert_array_equal(im2col(b, 3, 3, 1, 1, ws), im2col(b, 3, 3, 1, 1))
        # Back to the first geometry: correct after the realloc churn.
        np.testing.assert_array_equal(im2col(a, 3, 3, 1, 1, ws), im2col(a, 3, 3, 1, 1))

    def test_pad_border_stays_zero_across_reuse(self, rng):
        # The padded-input border is zeroed only at allocation; reuse
        # must not leak previous batches into the border.
        ws = ConvWorkspace()
        for _ in range(3):
            x = rng.normal(size=(1, 2, 4, 4))
            np.testing.assert_array_equal(
                im2col(x, 3, 3, 1, 2, ws), im2col(x, 3, 3, 1, 2)
            )

    def test_ragged_batches_share_one_allocation(self, rng):
        """N = 20, 7, 20 (a shard that is no multiple of the batch size)
        keeps every buffer where it is and stays bit-correct."""
        ws = ConvWorkspace()
        where = []
        for n in (20, 7, 20, 7):
            x = rng.normal(size=(n, 3, 6, 6))
            cols = im2col(x, 3, 3, 1, 1, ws)
            assert cols.flags.c_contiguous
            np.testing.assert_array_equal(cols, im2col(x, 3, 3, 1, 1))
            y = rng.normal(size=cols.shape)
            back = col2im(y, x.shape, 3, 3, 1, 1, ws)
            np.testing.assert_array_equal(back, col2im(y, x.shape, 3, 3, 1, 1))
            where.append(tuple(
                buf.__array_interface__["data"][0]
                for buf in (ws._cols, ws._pad_in, ws._pad_out)
            ))
        assert len(set(where)) == 1

    def test_larger_batch_grows_capacity_once(self, rng):
        ws = ConvWorkspace()
        im2col(rng.normal(size=(2, 1, 5, 5)), 3, 3, 1, 1, ws)
        small = ws._cols
        x = rng.normal(size=(5, 1, 5, 5))
        np.testing.assert_array_equal(im2col(x, 3, 3, 1, 1, ws), im2col(x, 3, 3, 1, 1))
        assert ws._cols is not small and ws._cols.shape[0] == 5 * 25
        grown = ws._cols
        im2col(rng.normal(size=(3, 1, 5, 5)), 3, 3, 1, 1, ws)
        assert ws._cols is grown

    def test_pad_border_stays_zero_across_batch_sizes(self, rng):
        ws = ConvWorkspace()
        for n in (4, 1, 3, 6, 2):
            x = rng.normal(size=(n, 2, 4, 4))
            np.testing.assert_array_equal(
                im2col(x, 3, 3, 1, 2, ws), im2col(x, 3, 3, 1, 2)
            )

    def test_scatter_target_is_channels_last(self, rng):
        ws = ConvWorkspace()
        back = col2im(rng.normal(size=(2 * 36, 27)), (2, 3, 6, 6), 3, 3, 1, 1, ws)
        assert ws._pad_out.shape == (2, 8, 8, 3)
        assert np.shares_memory(back, ws._pad_out)
        assert back.strides[1] == back.itemsize  # channels innermost

    def test_buffers_allocated_on_first_use_only(self, rng):
        ws = ConvWorkspace()
        im2col(rng.normal(size=(2, 1, 4, 4)), 2, 2, 2, 0, ws)
        assert ws._cols is not None
        assert ws._pad_in is None and ws._pad_out is None

    def test_pickles_as_empty(self, rng):
        ws = ConvWorkspace()
        x = rng.normal(size=(8, 3, 6, 6))
        cols = im2col(x, 3, 3, 1, 1, ws)
        col2im(cols, x.shape, 3, 3, 1, 1, ws)
        blob = pickle.dumps(ws)
        assert len(blob) < 200
        clone = pickle.loads(blob)
        assert clone._cols is None and clone._pad_in is None and clone._pad_out is None
        np.testing.assert_array_equal(
            im2col(x, 3, 3, 1, 1, clone), im2col_reference(x, 3, 3, 1, 1)
        )

    def test_workspace_steady_state_in_training_loop(self, rng):
        """Conv2d forward/backward with workspaces == fresh-allocation math."""
        from repro.nn.layers import Conv2d

        conv_ws = Conv2d(3, 4, 3, np.random.default_rng(0), padding=1)
        conv_ref = Conv2d(3, 4, 3, np.random.default_rng(0), padding=1)
        for step in range(3):
            x = rng.normal(size=(2, 3, 6, 6))
            grad_out = rng.normal(size=(2, 4, 6, 6))
            out = conv_ws.forward(x, training=True)
            grad_in = conv_ws.backward(grad_out)

            cols = im2col(x, 3, 3, 1, 1)
            w_mat = conv_ref.weight.data.reshape(4, -1)
            ref_out = (cols @ w_mat.T + conv_ref.bias.data).reshape(
                2, 6, 6, 4
            ).transpose(0, 3, 1, 2)
            np.testing.assert_array_equal(out, ref_out)

            grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, 4)
            ref_grad_in = col2im(grad_mat @ w_mat, x.shape, 3, 3, 1, 1)
            np.testing.assert_array_equal(grad_in, ref_grad_in)
            conv_ref.weight.grad += (grad_mat.T @ cols).reshape(
                conv_ref.weight.data.shape
            )
            np.testing.assert_array_equal(conv_ws.weight.grad, conv_ref.weight.grad)

    def test_eval_forward_between_train_forward_and_backward(self, rng):
        # An evaluation pass (same shape) must not clobber the column
        # buffer a pending backward depends on — hence the separate
        # train/eval workspaces in Conv2d.
        from repro.nn.layers import Conv2d

        conv = Conv2d(2, 3, 3, np.random.default_rng(1), padding=1)
        x_train = rng.normal(size=(2, 2, 5, 5))
        grad_out = rng.normal(size=(2, 3, 5, 5))

        conv.forward(x_train, training=True)
        conv.forward(rng.normal(size=x_train.shape), training=False)
        conv.backward(grad_out)
        got = conv.weight.grad.copy()

        conv.zero_grad()
        conv.forward(x_train, training=True)
        conv.backward(grad_out)
        np.testing.assert_array_equal(got, conv.weight.grad)
