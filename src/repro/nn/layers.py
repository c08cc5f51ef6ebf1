"""Layers with explicit forward/backward passes.

The package deliberately avoids a tape-based autograd: every layer
caches what it needs during ``forward`` and consumes it in
``backward``.  That keeps the memory profile predictable (important for
the embedded-device cost model in :mod:`repro.embedded`) and makes the
FLOP accounting per layer exact.

All layers share the :class:`Layer` interface:

``forward(x, training=False)``
    Run the layer, caching intermediates when ``training`` is true.
``backward(grad_out, need_input=True)``
    Given the loss gradient w.r.t. the layer output, accumulate
    parameter gradients into ``Parameter.grad`` and return the gradient
    w.r.t. the layer input.  ``need_input=False`` tells the layer that
    nobody reads that gradient (it is the first trainable layer of a
    training step): layers that pay for it (``Linear``, ``Conv2d``)
    skip the work and return ``None``; the rest ignore the flag.
``parameters()``
    The layer's trainable :class:`Parameter` objects, in a stable
    order.

Memory order.  ``Conv2d`` emits its (N, C, H, W) output as a view of
NHWC memory — the natural layout of its (N*H*W, C) GEMM result — and
hands its input gradient back the same way (``col2im`` scatters
channels-last).  ``ReLU``, ``MaxPool2d`` and ``Flatten`` follow the
memory order of their forward input: outputs and masks are written in
it, and backward returns the input gradient in it, which is the order
the producing layer reads.  So within a conv block no operand is
re-laid-out, and ``Conv2d.backward`` reads ``grad_out`` as a free
(N*H*W, C) view.  Layout never changes a result: elementwise ops and
copies are order-free, ``Conv2d.backward`` always reduces over a
C-ordered matrix, and ``Flatten`` hands the ``Linear`` head a C-ordered
copy of an NHWC input.
"""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.conv_utils import ConvWorkspace, col2im, conv_output_size, im2col

__all__ = [
    "Parameter",
    "Layer",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "Flatten",
    "ResidualBlock",
]


class Parameter:
    """A trainable tensor with an accompanying gradient buffer."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @classmethod
    def from_views(cls, name: str, data: np.ndarray, grad: np.ndarray) -> "Parameter":
        """Wrap existing arrays without copying or reallocating the grad.

        Used by :class:`repro.nn.sequential.Sequential` to expose its
        backing buffers as a single flat parameter.
        """
        if data.shape != grad.shape:
            raise ValueError("data and grad shapes must match")
        obj = cls.__new__(cls)
        obj.name = name
        obj.data = data
        obj.grad = grad
        return obj

    def __getstate__(self) -> tuple:
        # Pickling an ndarray view serialises an independent copy, which
        # would store every parameter twice beside a model's flat
        # buffers and sever it from them on load; a view of a flat
        # buffer goes as (buffer, offset, shape) instead, so pickle's
        # memo stores the buffer once and the view is rebuilt over it.
        return (self.name, _buffer_ref(self.data), _buffer_ref(self.grad))

    def __setstate__(self, state: tuple) -> None:
        self.name, data, grad = state
        self.data = _from_buffer_ref(data)
        self.grad = _from_buffer_ref(grad)

    @property
    def size(self) -> int:
        """Number of scalar elements in the parameter."""
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the gradient buffer in place."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _buffer_ref(array: np.ndarray) -> np.ndarray | tuple:
    """``(buffer, offset, shape)`` for a packed view into a flat buffer,
    else ``array`` itself."""
    base = array.base
    if (
        not isinstance(base, np.ndarray)
        or base.ndim != 1
        or base.dtype != array.dtype
        or not (base.flags.c_contiguous and array.flags.c_contiguous)
    ):
        return array
    start = array.__array_interface__["data"][0] - base.__array_interface__["data"][0]
    return (base, start // base.itemsize, array.shape)


def _from_buffer_ref(ref: np.ndarray | tuple) -> np.ndarray:
    if isinstance(ref, np.ndarray):
        return ref
    base, offset, shape = ref
    size = int(np.prod(shape))
    return base[offset:offset + size].reshape(shape)


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable parameters in a stable order (default: none)."""
        return []

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape (excluding batch) this layer produces for ``input_shape``."""
        raise NotImplementedError

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Approximate multiply-accumulate count for one forward sample.

        The embedded-device cost model multiplies this by a
        backward-pass factor; layers without arithmetic return 0.
        """
        del input_shape
        return 0


class Linear(Layer):
    """Fully connected layer: ``y = x @ W.T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        name: str = "linear",
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            f"{name}.weight",
            initializers.kaiming_uniform((out_features, in_features), rng),
        )
        self.bias = Parameter(f"{name}.bias", initializers.zeros((out_features,))) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (N, {self.in_features}), got {x.shape}"
            )
        if training:
            self._x = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("backward called before forward(training=True)")
        self.weight.grad += grad_out.T @ self._x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        self._x = None
        if not need_input:
            return None
        return grad_out @ self.weight.data

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ValueError(
                f"Linear expected input shape ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return self.in_features * self.out_features


class Conv2d(Layer):
    """2-D convolution over (N, C, H, W) inputs via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "conv",
    ):
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(f"{name}.weight", initializers.kaiming_uniform(shape, rng))
        self.bias = Parameter(f"{name}.bias", initializers.zeros((out_channels,))) if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        # Separate train/eval workspaces: training forward caches the
        # column buffer for backward, so an interleaved evaluation pass
        # must not overwrite it.
        self._ws_train = ConvWorkspace()
        self._ws_eval = ConvWorkspace()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        cols = im2col(x, k, k, s, p, self._ws_train if training else self._ws_eval)
        if training:
            self._cols = cols
            self._x_shape = x.shape
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ w_mat.T
        if self.bias is not None:
            out += self.bias.data
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        return out

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        # Always a C-ordered (N*H*W, C) matrix, so the GEMMs and the
        # bias sum below associate the same way whatever the gradient's
        # layout.  A free view in a model: every layer hands its
        # gradient back in NHWC memory, the order forward emitted.
        grad_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(
            -1, self.out_channels
        )
        self.weight.grad += (grad_mat.T @ self._cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_mat.sum(axis=0)
        x_shape = self._x_shape
        self._cols = None
        self._x_shape = None
        if not need_input:
            return None
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        return col2im(
            grad_mat @ w_mat,
            x_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            self._ws_train,
        )

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        _, out_h, out_w = self.output_shape(input_shape)
        per_output = self.in_channels * self.kernel_size * self.kernel_size
        return per_output * self.out_channels * out_h * out_w


def _channels_last(x: np.ndarray) -> bool:
    """Whether (N, C, H, W) ``x`` keeps channels innermost in memory,
    as a ``Conv2d`` output does."""
    return x.strides[1] < x.strides[3]


def _empty_nchw(
    shape: tuple[int, ...], dtype: np.dtype, channels_last: bool
) -> np.ndarray:
    """An uninitialised (..., N, C, H, W) array, NHWC in memory when
    ``channels_last``."""
    if not channels_last:
        return np.empty(shape, dtype=dtype)
    *lead, c, h, w = shape
    return np.moveaxis(np.empty((*lead, h, w, c), dtype=dtype), -1, -3)


def _window_planes(
    x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> list[np.ndarray]:
    """The ``kernel * kernel`` strided views ``x[:, :, i::s, j::s]``.

    Plane ``(i, j)`` holds element ``(i, j)`` of every pooling window,
    shaped like the pooled output; the list is in ``(i, j)`` order, the
    column order of an im2col expansion.  Rows/columns past the last
    whole window (floor tiling) belong to no plane.
    """
    h_span, w_span = stride * out_h, stride * out_w
    return [
        x[:, :, i:i + h_span:stride, j:j + w_span:stride]
        for i in range(kernel)
        for j in range(kernel)
    ]


class MaxPool2d(Layer):
    """Max pooling with a square window; window must tile exactly or floor.

    Works on the window planes of :func:`_window_planes` with exact
    elementwise ops — no column expansion.  Output, tie masks and the
    input gradient follow the memory order of the forward input: NHWC
    behind a ``Conv2d`` / ``ReLU``, C order otherwise.  The workspace
    only supplies the zero-filled input-gradient buffer of backward.
    """

    def __init__(self, kernel_size: int, stride: int | None = None):
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: tuple[int, int, int, int] | None = None
        self._channels_last = False
        self._ws = ConvWorkspace()
        self._masks: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        channels_last = _channels_last(x)
        out = _empty_nchw((n, c, out_h, out_w), x.dtype, channels_last)
        planes = _window_planes(x, k, s, out_h, out_w)
        np.copyto(out, planes[0])
        for plane in planes[1:]:
            np.maximum(out, plane, out=out)
        if training:
            # Break ties: keep only the first maximal element per window
            # (in (i, j) order) so the backward pass routes each
            # gradient exactly once.
            masks = _empty_nchw((len(planes),) + out.shape, np.bool_, channels_last)
            seen = masks[0]  # running "an element so far is maximal"
            np.equal(planes[0], out, out=seen)
            for plane, mask in zip(planes[1:], masks[1:]):
                np.equal(plane, out, out=mask)
                # On booleans ``a > b`` is ``a & ~b``: maximal here and
                # not at any earlier element.
                np.greater(mask, seen, out=mask)
                np.logical_or(seen, mask, out=seen)
            # Element 0 wins wherever no later element did — also in a
            # window whose maximum is NaN and equals nothing, as an
            # argmax over an all-False row would pick it.
            np.logical_or.reduce(masks[1:], axis=0, out=seen)
            np.logical_not(seen, out=seen)
            self._masks = masks
            self._x_shape = x.shape
            self._channels_last = channels_last
        return out

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        masks = self._masks
        self._masks = None
        if self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, h, w = self._x_shape
        self._x_shape = None
        k, s = self.kernel_size, self.stride
        self._ws.bind((c, h, w), k, k, s, 0, grad_out.dtype)
        zeros = self._ws.scatter_target(n)  # channels-last (n, h, w, c)
        if self._channels_last:
            grad_in = zeros.transpose(0, 3, 1, 2)
        else:  # the same zeroed memory, read in C order
            grad_in = zeros.reshape(n, c, h, w)
        planes = _window_planes(grad_in, k, s, grad_out.shape[2], grad_out.shape[3])
        # ``0 + mask * grad`` per element, planes in (i, j) order: the
        # zero fill absorbs signed zeros, a non-finite gradient times
        # False stays NaN, overlapping windows accumulate in order.
        routed = _empty_nchw(grad_out.shape, grad_out.dtype, self._channels_last)
        for mask, plane in zip(masks, planes):
            np.multiply(mask, grad_out, out=routed)
            plane += routed
        return grad_in

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, 0)
        out_w = conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, out_h, out_w)


class GlobalAvgPool2d(Layer):
    """Average over the entire spatial extent, yielding (N, C)."""

    def __init__(self) -> None:
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, h, w = self._x_shape
        # reprolint: allow[R402] broadcast views are read-only; callers mutate grad_in
        grad_in = np.broadcast_to(
            grad_out[:, :, None, None] / (h * w), (n, c, h, w)
        ).copy()
        self._x_shape = None
        return grad_in

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, _, _ = input_shape
        return (c,)


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        mask = self._mask
        if mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        self._mask = None
        # In the mask's (the forward input's) memory order, which is
        # the order the layer before reads it in.
        return np.multiply(grad_out, mask, out=np.empty_like(mask, dtype=grad_out.dtype))

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Flatten(Layer):
    """Reshape (N, ...) to (N, -1).

    An NHWC-memory input (a pool output) is copied into C order, so the
    ``Linear`` after it reads the operand layout it always has; the
    input gradient comes back in the forward input's memory order.
    """

    def __init__(self) -> None:
        self._x_shape: tuple[int, ...] | None = None
        self._channels_last = False

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x_shape = x.shape
            self._channels_last = x.ndim == 4 and _channels_last(x)
        return x.reshape(x.shape[0], -1)

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        grad_in = grad_out.reshape(self._x_shape)
        self._x_shape = None
        if not self._channels_last:
            return grad_in
        ordered = _empty_nchw(grad_in.shape, grad_in.dtype, channels_last=True)
        ordered[...] = grad_in
        return ordered

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)


class ResidualBlock(Layer):
    """Two 3x3 same-padding convolutions with an identity skip.

    This is the building block of :func:`repro.nn.models.build_resnet_mini`,
    the depth-reduced stand-in for the paper's ResNet-50.
    """

    def __init__(self, channels: int, rng: np.random.Generator, name: str = "res"):
        self.conv1 = Conv2d(channels, channels, 3, rng, padding=1, name=f"{name}.conv1")
        self.relu1 = ReLU()
        self.conv2 = Conv2d(channels, channels, 3, rng, padding=1, name=f"{name}.conv2")
        self.relu2 = ReLU()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self.conv1.forward(x, training)
        out = self.relu1.forward(out, training)
        out = self.conv2.forward(out, training)
        return self.relu2.forward(out + x, training)

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        grad = self.relu2.backward(grad_out)
        grad_branch = self.conv2.backward(grad)
        grad_branch = self.relu1.backward(grad_branch)
        grad_branch = self.conv1.backward(grad_branch, need_input)
        if not need_input:
            return None
        return grad_branch + grad

    def parameters(self) -> list[Parameter]:
        return self.conv1.parameters() + self.conv2.parameters()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        mid = self.conv1.output_shape(input_shape)
        return self.conv1.flops(input_shape) + self.conv2.flops(mid)
