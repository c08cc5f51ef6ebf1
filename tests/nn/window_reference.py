"""The column-expansion window code ``src/`` shipped before the packed
kernel, kept as the oracle for ``test_conv_utils.py`` (im2col/col2im)
and ``test_layers.py`` (pooling through columns)."""

import numpy as np

from repro.nn.conv_utils import conv_output_size


def im2col_reference(x, kernel_h, kernel_w, stride=1, padding=0):
    """The two-pass im2col ``src/`` shipped before the packed gather:
    ``kh * kw`` slice copies into a 6-D window buffer, then a repack."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gather = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            gather[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    rows = gather.transpose(0, 4, 5, 1, 2, 3)
    # Packed like the workspace column buffer the layers reduced over:
    # numpy's summation order along an axis depends on its stride.
    return np.ascontiguousarray(
        rows.reshape(n * out_h * out_w, c * kernel_h * kernel_w)
    )


def col2im_reference(cols, x_shape, kernel_h, kernel_w, stride=1, padding=0):
    """The slice-loop col2im ``src/`` shipped before: zero-filled target,
    ``+=`` per window element in (i, j) order."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def assert_bit_equal(actual, expected):
    """Equal values, and zeros carry the same sign."""
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def signed_values(seed, shape):
    """Normal draws salted with exact +0.0 and -0.0 entries."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    kind = rng.integers(0, 4, size=shape)
    values[kind == 0] = 0.0
    values[kind == 1] = -0.0
    return values


def maxpool_columns(x, kernel, stride):
    """(output, first-maximum mask over columns) of the old MaxPool2d."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols = im2col_reference(x.reshape(n * c, 1, h, w), kernel, kernel, stride)
    out = cols.max(axis=1)
    hits = cols == out[:, None]
    mask = np.zeros_like(hits)
    mask[np.arange(mask.shape[0]), np.argmax(hits, axis=1)] = True
    return out.reshape(n, c, out_h, out_w), mask


def maxpool_columns_backward(mask, grad_out, x_shape, kernel, stride):
    n, c, h, w = x_shape
    grad_cols = mask * grad_out.reshape(-1, 1)
    grad_in = col2im_reference(grad_cols, (n * c, 1, h, w), kernel, kernel, stride)
    return grad_in.reshape(n, c, h, w)
