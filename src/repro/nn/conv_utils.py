"""im2col / col2im helpers — the one window kernel of :mod:`repro.nn`.

Convolutions in :mod:`repro.nn` are implemented as a single matrix
multiplication over an *im2col* expansion of the input.  On a CPU this
is the standard way to get BLAS-speed convolutions out of numpy, and it
keeps the backward pass a plain transposed matmul plus a *col2im*
scatter.  The serial layers (:mod:`repro.nn.layers`) and the fused
multi-client kernel (:mod:`repro.nn.batched`) both call the helpers
here; there is no second implementation.

The gather is a single pass: a zero-cost strided *view* of every
receptive field feeds one ``np.copyto`` into the column matrix.  A
gather moves the same values whatever the staging, so the result is
bit-identical to the textbook ``kh * kw`` slice-copy loop.

The scatter is channels-last: windows are added into an
(N, H+2p, W+2p, C) target and the result is its NCHW-shaped transposed
view, the same memory order ``Conv2d`` emits its outputs in.  Each
``(i, j)`` slice add then runs over contiguous rows of ``out_w * C``
elements, and every element still receives the same addends in the
same ``(i, j)`` order as the textbook NCHW loop, so values and zero
signs are unchanged.  Both textbook loops are kept as the reference in
``tests/nn/window_reference.py``.

Both helpers accept an optional :class:`ConvWorkspace`.  The im2col
expansion and the col2im scatter target are the two largest
allocations in the training inner loop; a workspace caches them keyed
on the per-sample geometry, so steady-state training performs zero
large allocations per batch — including the short final batch of an
epoch.  Workspace-backed calls return views into the workspace: the
result is only valid until the next call that reuses the same
workspace.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_output_size", "im2col", "col2im", "ConvWorkspace"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution collapses dimension: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


class ConvWorkspace:
    """Reusable im2col/col2im scratch buffers for one window geometry.

    Holds the three big intermediates of an im2col convolution, each
    allocated on first use:

    * ``cols``     — (N*out_h*out_w, C*kh*kw) column matrix,
    * ``pad_in``   — zero-padded input copy (forward, padding > 0),
    * ``pad_out``  — channels-last (N, H+2p, W+2p, C) col2im scatter
      target.

    The key is the *per-sample* geometry; the batch size only sets a
    capacity.  Buffers are sized for the largest ``N`` seen and a call
    gets their leading-``N`` prefix (still C-contiguous), so a ragged
    final batch reuses the same memory instead of reallocating.  The
    capacity is whatever the caller asks for: a ``Conv2d``'s one
    workspace grows to the larger of its largest training batch and one
    evaluation block (a model streams evaluation through its conv trunk
    in blocks whose widest im2col fits ``EVAL_COLS_BYTES``).  ``pad_in``
    keeps its zero border across calls: only the interior is rewritten.

    A workspace is pure scratch: it pickles as an empty one.
    """

    __slots__ = ("_key", "_out_hw", "_cols_shape", "_image_shape",
                 "_cols", "_pad_in", "_pad_out")

    def __init__(self) -> None:
        self._key: tuple | None = None
        # Per-sample shapes, derived from the key in :meth:`bind`.
        self._out_hw: tuple[int, int] = (0, 0)
        self._cols_shape: tuple[int, int] = (0, 0)
        self._image_shape: tuple[int, int, int] = (0, 0, 0)
        self._cols: np.ndarray | None = None
        self._pad_in: np.ndarray | None = None
        self._pad_out: np.ndarray | None = None

    def __reduce__(self) -> tuple:
        return (ConvWorkspace, ())

    def bind(
        self,
        sample_shape: tuple[int, int, int],
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
        dtype: np.dtype,
    ) -> tuple[int, int]:
        """Select the window geometry; return (out_h, out_w).

        A geometry change drops every buffer; the same geometry keeps
        them whatever batch size follows.
        """
        key = (sample_shape, kernel_h, kernel_w, stride, padding, dtype)
        if key != self._key:
            c, h, w = sample_shape
            out_h = conv_output_size(h, kernel_h, stride, padding)
            out_w = conv_output_size(w, kernel_w, stride, padding)
            self._out_hw = (out_h, out_w)
            self._cols_shape = (out_h * out_w, c * kernel_h * kernel_w)
            self._image_shape = (c, h + 2 * padding, w + 2 * padding)
            self._key = key
            self._cols = self._pad_in = self._pad_out = None
        return self._out_hw

    def cols(self, n: int) -> np.ndarray:
        """The (n*out_h*out_w, C*kh*kw) column matrix (uninitialised)."""
        rows, width = self._cols_shape
        buf = self._cols
        if buf is None or buf.shape[0] < n * rows:
            buf = self._cols = np.empty((n * rows, width), dtype=self._key[-1])
        return _prefix(buf, n * rows)

    def padded_input(self, n: int) -> np.ndarray:
        """The (n, C, H+2p, W+2p) staging image; its border is zero."""
        buf = self._pad_in
        if buf is None or buf.shape[0] < n:
            buf = self._pad_in = np.zeros(
                (n,) + self._image_shape, dtype=self._key[-1]
            )
        return _prefix(buf, n)

    def scatter_target(self, n: int) -> np.ndarray:
        """A zero-filled channels-last (n, H+2p, W+2p, C) image to
        accumulate into."""
        buf = self._pad_out
        if buf is None or buf.shape[0] < n:
            c, h, w = self._image_shape
            buf = self._pad_out = np.empty((n, h, w, c), dtype=self._key[-1])
        out = _prefix(buf, n)
        out.fill(0.0)
        return out


def _prefix(buf: np.ndarray, n: int) -> np.ndarray:
    """Leading ``n`` rows of a capacity buffer (itself when full)."""
    return buf if buf.shape[0] == n else buf[:n]


def _windows(
    image: np.ndarray,
    out_h: int,
    out_w: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
) -> np.ndarray:
    """(N, out_h, out_w, C, kh, kw) view of every receptive field."""
    n, c = image.shape[:2]
    sn, sc, sh, sw = image.strides
    return np.lib.stride_tricks.as_strided(
        image,
        shape=(n, out_h, out_w, c, kernel_h, kernel_w),
        strides=(sn, stride * sh, stride * sw, sc, sh, sw),
    )


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    workspace: ConvWorkspace | None = None,
) -> np.ndarray:
    """Expand ``x`` of shape (N, C, H, W) into convolution columns.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h *
    kernel_w)`` where each row is one receptive field, laid out so that
    ``cols @ weights.reshape(out_c, -1).T`` computes the convolution.
    ``x`` may have any strides (``Conv2d`` emits NHWC-memory views).

    With a ``workspace`` the returned array is the workspace's cached
    column buffer (valid until the next same-workspace call); without
    one the buffers are fresh.
    """
    if workspace is None:
        workspace = ConvWorkspace()
    n, c = x.shape[:2]
    out_h, out_w = workspace.bind(
        x.shape[1:], kernel_h, kernel_w, stride, padding, x.dtype
    )
    if padding > 0:
        # The border was zeroed at allocation and is never written
        # afterwards; only the interior needs refreshing.
        padded = workspace.padded_input(n)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    cols = workspace.cols(n)
    np.copyto(
        cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w),
        _windows(x, out_h, out_w, kernel_h, kernel_w, stride),
    )
    return cols


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    workspace: ConvWorkspace | None = None,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to an image.

    Overlapping receptive fields accumulate, which is exactly the
    gradient of the im2col gather — so this implements the backward
    pass of convolution with respect to its input.  The channels-last
    target starts zero-filled and window slices are added in ``(i, j)``
    order, read straight from the column matrix; adding into ``+0``
    absorbs signed zeros, and that order is part of the bit-level
    contract.  The result has shape ``x_shape`` and NHWC memory order.

    With a ``workspace`` the result is (a view into) the workspace's
    cached scatter buffer, valid until the next same-workspace call.
    """
    if workspace is None:
        workspace = ConvWorkspace()
    n, c = x_shape[:2]
    out_h, out_w = workspace.bind(
        x_shape[1:], kernel_h, kernel_w, stride, padding, cols.dtype
    )
    padded = workspace.scatter_target(n)
    image = padded.transpose(0, 3, 1, 2)
    fields = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    if stride >= kernel_h and stride >= kernel_w:
        # Non-overlapping windows: every target element is hit at most
        # once, so the whole scatter-add is one strided ``+=`` into a
        # window view — no aliasing, same ``0 + x`` per element.
        windows = _windows(image, out_h, out_w, kernel_h, kernel_w, stride)
        windows += fields
    else:
        for i in range(kernel_h):
            i_max = i + stride * out_h
            for j in range(kernel_w):
                j_max = j + stride * out_w
                padded[:, i:i_max:stride, j:j_max:stride] += fields[..., i, j]
    if padding > 0:
        return image[:, :, padding:-padding, padding:-padding]
    return image
