"""Batched multi-client training kernel.

Fuses K clients' local-SGD steps into single numpy calls: each step
stacks the K per-client minibatches into one ``(K*batch, ...)`` tensor
and runs ONE fused forward/backward through a shared set of scratch
buffers, instead of K independent ``Sequential`` passes.  Per-client
parameters live in a ``(K, d)`` stacked flat buffer; weights enter the
fused GEMMs as per-row views carved out of that buffer, and the
optimizer (SGD/momentum/weight-decay/FedProx/SCAFFOLD corrections)
runs as row-wise in-place ops on the stack.

The kernel is **bit-identical** to the serial ``Client.local_train``
path.  The determinism argument (see docs/architecture.md, "Batched
multi-client kernel"):

* Per-client GEMMs run as 3-D stacked ``np.matmul`` calls whose slices
  are byte-for-byte the serial 2-D GEMM operands, and BLAS computes
  each slice of a stacked matmul with the same kernel as the 2-D call.
* Every cross-sample *reduction* (bias gradients, loss means) runs
  per client on a slice whose shape and strides equal the serial
  operand's, so pairwise summation order is unchanged.  Only
  elementwise ops and data movement are fused across clients.
* Shuffle draws stay on the per-client generators in the serial
  epoch order, so every stream advances identically.

Models whose layers fall outside the supported set (or that a caller
hands inconsistent shards) raise :class:`UnsupportedModelError`; the
engines catch it and fall back to the serial oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.conv_utils import ConvWorkspace, col2im, conv_output_size, im2col
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.sequential import Sequential

__all__ = [
    "MultiClientTrainer",
    "TaskResult",
    "UnsupportedModelError",
    "architecture",
]


class UnsupportedModelError(Exception):
    """The model (or shard layout) cannot run through the batched kernel."""


@dataclass
class TaskResult:
    """Per-client outcome of one fused local-training round."""

    losses: list[float] = field(default_factory=list)
    steps: int = 0
    samples_seen: int = 0
    # The client's row of the trainer's parameter / gradient stacks:
    # views, valid until the trainer's next ``run``.
    params: np.ndarray | None = None
    grads: np.ndarray | None = None


# ----------------------------------------------------------------------
# Layer support matrix
# ----------------------------------------------------------------------
def _signature(layer) -> tuple | None:
    """A hashable config tuple iff the layer type is batchable."""
    t = type(layer)
    if t is Linear:
        return ("linear", layer.in_features, layer.out_features,
                layer.bias is not None)
    if t is Conv2d:
        return ("conv", layer.in_channels, layer.out_channels,
                layer.kernel_size, layer.stride, layer.padding,
                layer.bias is not None)
    if t is MaxPool2d:
        return ("maxpool", layer.kernel_size, layer.stride)
    if t is ReLU:
        return ("relu",)
    if t is Flatten:
        return ("flatten",)
    return None


def architecture(model: Sequential) -> tuple | None:
    """Hashable identity of a batchable architecture, else ``None``.

    Two models with equal values can share one :class:`MultiClientTrainer`.
    """
    if len(model.output_shape) != 1:
        return None
    sigs = tuple(_signature(layer) for layer in model.layers)
    if None in sigs:
        return None
    return (sigs, model.input_shape, model.num_params)


def _carve(buf: np.ndarray, offset: int, shape: tuple[int, ...]) -> np.ndarray:
    """A (K,) + shape parameter view into the (K, d) stacked buffer."""
    size = 1
    for dim in shape:
        size *= dim
    view = buf[:, offset:offset + size].reshape((buf.shape[0],) + shape)
    if not np.shares_memory(view, buf):  # pragma: no cover - defensive
        raise UnsupportedModelError("stacked parameter carve copied")
    return view


# ----------------------------------------------------------------------
# Per-layer batched handlers
# ----------------------------------------------------------------------
class _Handler:
    """Batched forward/backward for one layer position.

    Built from the reference model's layer at that position (its
    configuration only).
    """

    param_size = 0

    def __init__(self, tr: "MultiClientTrainer", li: int):
        self.tr = tr
        self.li = li

    def forward(self, x, a, b, bsz):
        raise NotImplementedError

    def backward(self, g, a, b, bsz, need_input):
        raise NotImplementedError


class _LinearH(_Handler):
    def __init__(self, tr, li, layer, offset):
        super().__init__(tr, li)
        self.in_f = layer.in_features
        self.out_f = layer.out_features
        self.has_bias = layer.bias is not None
        self.W = _carve(tr._P, offset, (self.out_f, self.in_f))
        self.Gw = _carve(tr._G, offset, (self.out_f, self.in_f))
        self.param_size = self.out_f * self.in_f
        if self.has_bias:
            self.B = _carve(tr._P, offset + self.param_size, (self.out_f,))
            self.Gb = _carve(tr._G, offset + self.param_size, (self.out_f,))
            self.param_size += self.out_f
        self._x3 = None

    def forward(self, x, a, b, bsz):
        m = b - a
        x3 = x.reshape(m, bsz, self.in_f)
        o3 = self.tr._buf(self.li, "o3", (m, bsz, self.out_f))
        np.matmul(x3, self.W[a:b].transpose(0, 2, 1), out=o3)
        if self.has_bias:
            o3 += self.B[a:b][:, None, :]
        self._x3 = x3
        return o3.reshape(m * bsz, self.out_f)

    def backward(self, g, a, b, bsz, need_input):
        m = b - a
        g3 = g.reshape(m, bsz, self.out_f)
        wg = self.tr._buf(self.li, "wg", (m, self.out_f, self.in_f))
        np.matmul(g3.transpose(0, 2, 1), self._x3, out=wg)
        self.Gw[a:b] += wg
        if self.has_bias:
            bg = self.tr._buf(self.li, "bg", (m, self.out_f))
            # One stacked reduce: per output element it sums the same
            # ``bsz`` addends in the same order as the per-client
            # ``np.sum(g3[i], axis=0)``, so results are bit-identical.
            np.add.reduce(g3, axis=1, out=bg)
            self.Gb[a:b] += bg
        self._x3 = None
        if not need_input:
            return None
        gi = self.tr._buf(self.li, "gi", (m, bsz, self.in_f))
        np.matmul(g3, self.W[a:b], out=gi)
        return gi.reshape(m * bsz, self.in_f)


class _Conv2dH(_Handler):
    def __init__(self, tr, li, layer, offset):
        super().__init__(tr, li)
        self.in_c = layer.in_channels
        self.out_c = layer.out_channels
        self.k = layer.kernel_size
        self.s = layer.stride
        self.p = layer.padding
        self.has_bias = layer.bias is not None
        ckk = self.in_c * self.k * self.k
        self.ckk = ckk
        self.W = _carve(tr._P, offset, (self.out_c, ckk))
        self.Gw = _carve(tr._G, offset, (self.out_c, ckk))
        self.param_size = self.out_c * ckk
        if self.has_bias:
            self.B = _carve(tr._P, offset + self.param_size, (self.out_c,))
            self.Gb = _carve(tr._G, offset + self.param_size, (self.out_c,))
            self.param_size += self.out_c
        self._ws = ConvWorkspace()
        self._cols3 = None
        self._x_shape = None
        self._geom = None

    def forward(self, x, a, b, bsz):
        m = b - a
        n, _, h, w = x.shape
        oh = conv_output_size(h, self.k, self.s, self.p)
        ow = conv_output_size(w, self.k, self.s, self.p)
        cols = im2col(x, self.k, self.k, self.s, self.p, self._ws)
        cols3 = cols.reshape(m, bsz * oh * ow, self.ckk)
        o3 = self.tr._buf(self.li, "o3", (m, bsz * oh * ow, self.out_c))
        np.matmul(cols3, self.W[a:b].transpose(0, 2, 1), out=o3)
        if self.has_bias:
            o3 += self.B[a:b][:, None, :]
        self._cols3 = cols3
        self._x_shape = x.shape
        self._geom = (oh, ow)
        return o3.reshape(n, oh, ow, self.out_c).transpose(0, 3, 1, 2)

    def backward(self, g, a, b, bsz, need_input):
        m = b - a
        oh, ow = self._geom
        # C-ordered like the serial ``Conv2d.backward`` operand, also
        # when a single sample's reshape would be a free F-ordered view.
        gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, self.out_c)
        gm3 = gm.reshape(m, bsz * oh * ow, self.out_c)
        wg = self.tr._buf(self.li, "wg", (m, self.out_c, self.ckk))
        np.matmul(gm3.transpose(0, 2, 1), self._cols3, out=wg)
        self.Gw[a:b] += wg
        if self.has_bias:
            bg = self.tr._buf(self.li, "bg", (m, self.out_c))
            # Stacked reduce, same per-element addend order as the
            # serial per-client sums (see _LinearH.backward).
            np.add.reduce(gm3, axis=1, out=bg)
            self.Gb[a:b] += bg
        grad_in = None
        if need_input:
            gc = self.tr._buf(self.li, "gc", (m, bsz * oh * ow, self.ckk))
            np.matmul(gm3, self.W[a:b], out=gc)
            grad_in = col2im(
                gc.reshape(m * bsz * oh * ow, self.ckk), self._x_shape,
                self.k, self.k, self.s, self.p, self._ws,
            )
        self._cols3 = None
        self._x_shape = None
        return grad_in


class _MaxPoolH(_Handler):
    def __init__(self, tr, li, layer, offset):
        super().__init__(tr, li)
        self.k = layer.kernel_size
        self.s = layer.stride
        self._ws = ConvWorkspace()
        self._first = None
        self._x_shape = None
        self._geom = None

    def forward(self, x, a, b, bsz):
        n, c, h, w = x.shape
        oh = conv_output_size(h, self.k, self.s, 0)
        ow = conv_output_size(w, self.k, self.s, 0)
        cols = im2col(x.reshape(n * c, 1, h, w), self.k, self.k, self.s, 0,
                      self._ws)
        rows_n = cols.shape[0]
        ob = self.tr._buf(self.li, "ob", (rows_n,))
        np.max(cols, axis=1, out=ob)
        first = self.tr._buf(self.li, "first", (rows_n,), dtype=np.intp)
        np.argmax(cols, axis=1, out=first)
        self._first = first
        self._x_shape = (n, c, h, w)
        self._geom = (oh, ow, cols.shape[1])
        return ob.reshape(n, c, oh, ow)

    def backward(self, g, a, b, bsz, need_input):
        if not need_input:
            self._first = None
            return None
        n, c, h, w = self._x_shape
        oh, ow, window = self._geom
        rows_n = self._first.shape[0]
        gcols = self.tr._buf(self.li, "gcols", (rows_n, window))
        gcols.fill(0.0)
        ar = self.tr._arange(rows_n)
        # Differs from the serial ``mask * grad`` only in the sign of
        # zeros, which the +0-initialised col2im scatter absorbs.
        # reprolint: allow[R403] first-max scatter: one write per pooling window
        gcols[ar, self._first] = g.reshape(-1)
        grad_in = col2im(gcols, (n * c, 1, h, w), self.k, self.k, self.s, 0,
                         self._ws)
        self._first = None
        self._x_shape = None
        return grad_in.reshape(n, c, h, w)


class _ReLUH(_Handler):
    def __init__(self, tr, li, layer, offset):
        super().__init__(tr, li)
        self._mask = None

    def forward(self, x, a, b, bsz):
        mask = self.tr._buf(self.li, "mask", x.shape, dtype=np.bool_)
        np.greater(x, 0, out=mask)
        ob = self.tr._out_like(self.li, "ob", x)
        np.maximum(x, 0.0, out=ob)
        self._mask = mask
        return ob

    def backward(self, g, a, b, bsz, need_input):
        if not need_input:
            self._mask = None
            return None
        gi = self.tr._buf(self.li, "gi", g.shape)
        np.multiply(g, self._mask, out=gi)
        self._mask = None
        return gi


class _FlattenH(_Handler):
    def __init__(self, tr, li, layer, offset):
        super().__init__(tr, li)
        self._x_shape = None

    def forward(self, x, a, b, bsz):
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, g, a, b, bsz, need_input):
        shape = self._x_shape
        self._x_shape = None
        if not need_input:
            return None
        return g.reshape(shape)


_HANDLER_TYPES: dict[type, type] = {
    Linear: _LinearH,
    Conv2d: _Conv2dH,
    MaxPool2d: _MaxPoolH,
    ReLU: _ReLUH,
    Flatten: _FlattenH,
}


# ----------------------------------------------------------------------
# The trainer
# ----------------------------------------------------------------------
class MultiClientTrainer:
    """Fused local SGD for K clients sharing one architecture.

    Construction takes the architecture from one reference model (its
    layer configuration only — the model is not kept), checks it is
    batchable, allocates the ``(K, d)`` parameter / gradient /
    optimizer-state stacks, and carves per-layer weight views.
    :meth:`run` binds K clients' shards and shuffling RNGs for one
    full local-training round (``local_epochs`` over
    every shard); the rows of the stack are the result.

    An instance depends on the architecture, K and the hyperparameters,
    never on who the K clients are, so it is reusable for any cohort of
    that size.
    """

    def __init__(
        self,
        model: Sequential,
        k: int,
        *,
        local_epochs: int,
        batch_size: int,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        prox_mu: float = 0.0,
        max_batches: int | None = None,
        use_corrections: bool = False,
    ):
        if k < 1:
            raise ValueError("K must be at least 1")
        if local_epochs < 1 or batch_size < 1 or lr <= 0:
            raise ValueError("invalid training hyperparameters")
        if not 0.0 <= momentum < 1.0 or weight_decay < 0.0 or prox_mu < 0.0:
            raise ValueError("invalid training hyperparameters")
        if max_batches is not None and max_batches < 1:
            raise ValueError("max_batches must be positive or None")
        if architecture(model) is None:
            raise UnsupportedModelError("model contains unbatchable layers")

        self.k = k
        self.d = model.num_params
        self.input_shape = model.input_shape
        self.num_classes = model.output_shape[0]
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.prox_mu = prox_mu
        self.max_batches = max_batches
        self.use_corrections = use_corrections

        self._P = np.empty((k, self.d), dtype=np.float64)
        self._G = np.zeros((k, self.d), dtype=np.float64)
        self._V = (np.zeros((k, self.d), dtype=np.float64)
                   if momentum > 0.0 else None)
        self._SP = (np.empty((k, self.d), dtype=np.float64)
                    if prox_mu > 0.0 else None)
        self._S = (np.empty((k, self.d), dtype=np.float64)
                   if weight_decay > 0.0 else None)
        self._SU = np.empty((k, self.d), dtype=np.float64)
        self._C = (np.empty((k, self.d), dtype=np.float64)
                   if use_corrections else None)

        self._bufs: dict[tuple, np.ndarray] = {}
        self._aranges: dict[int, np.ndarray] = {}

        self.handlers: list[_Handler] = []
        offset = 0
        for li, layer in enumerate(model.layers):
            handler = _HANDLER_TYPES[type(layer)](self, li, layer, offset)
            offset += handler.param_size
            self.handlers.append(handler)
        if offset != self.d:
            raise UnsupportedModelError("parameter layout mismatch")

        # Bound by ``run`` for its duration, in sorted-row order.
        self._xs: list[np.ndarray] = []
        self._ys: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def _buf(self, li: int, tag: str, shape: tuple[int, ...],
             dtype=np.float64) -> np.ndarray:
        key = (li, tag, shape, dtype)
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            # reprolint: allow[R403] dict memo insert, not an ndarray scatter
            self._bufs[key] = buf
        return buf

    def _out_like(self, li: int, tag: str, proto: np.ndarray,
                  dtype=np.float64) -> np.ndarray:
        """Scratch buffer with the layout numpy's order-``K`` ufunc
        allocation gives over ``proto``: packed, keeping ``proto``'s
        stride ordering.  Conv outputs are ``(N, oh, ow, oc)`` buffers
        viewed through ``transpose(0, 3, 1, 2)`` and the serial ReLU
        propagates that permuted layout; doing the same here hands the
        next layer the operand strides the serial path hands it (values
        are equal either way; ``fedavg_batched_thin`` reads 2-3 % slower
        with a C-ordered buffer)."""
        if proto.flags.c_contiguous:
            return self._buf(li, tag, proto.shape, dtype)
        perm = sorted(range(proto.ndim),
                      key=lambda axis: (-proto.strides[axis], axis))
        base = self._buf(li, tag, tuple(proto.shape[a] for a in perm), dtype)
        inv = [0] * len(perm)
        for pos, axis in enumerate(perm):
            # reprolint: allow[R403] python-list element store, no arrays
            inv[axis] = pos
        return base.transpose(inv)

    def _arange(self, n: int) -> np.ndarray:
        ar = self._aranges.get(n)
        if ar is None:
            ar = np.arange(n, dtype=np.intp)
            # reprolint: allow[R403] dict memo insert, not an ndarray scatter
            self._aranges[n] = ar
        return ar

    # ------------------------------------------------------------------
    def _check_shards(self, xs: list[np.ndarray], ys: list[np.ndarray]) -> None:
        for x, y in zip(xs, ys):
            if x.dtype != np.float64 or x.shape[1:] != self.input_shape:
                raise UnsupportedModelError("shard features not float64/shape")
            if (
                x.shape[0] == 0
                or y.shape != (x.shape[0],)
                or not np.issubdtype(y.dtype, np.integer)
                or y.min() < 0
                or y.max() >= self.num_classes
            ):
                raise UnsupportedModelError("shard labels out of range")

    def run(
        self,
        global_params: np.ndarray,
        xs: list[np.ndarray],
        ys: list[np.ndarray],
        rngs: list[np.random.Generator],
        corrections: list[np.ndarray] | None = None,
    ) -> list[TaskResult]:
        """One fused local-training round over K clients.

        ``xs``/``ys``/``rngs`` are the clients' shards and shuffling
        generators.  Results come back in the caller's client order;
        each one's ``params`` / ``grads`` are rows of the trainer's
        stacks, valid until the next ``run``.  Shards the kernel cannot take raise
        :class:`UnsupportedModelError` before any RNG is drawn from.
        """
        k = self.k
        if global_params.shape != (self.d,):
            raise ValueError("global_params has wrong dimension")
        if not (len(xs) == len(ys) == len(rngs) == k):
            raise ValueError(f"xs/ys/rngs must each have K = {k} entries")
        if self.use_corrections and (corrections is None or len(corrections) != k):
            raise ValueError("corrections required with use_corrections")
        self._check_shards(xs, ys)

        # Rows sorted by descending shard size (stable) so the active
        # set at any step is a prefix and equal-batch runs contiguous.
        order = sorted(range(k), key=lambda i: (-len(ys[i]), i))
        rngs = [rngs[i] for i in order]
        n = [len(ys[i]) for i in order]
        bs = self.batch_size
        steps = [-(-size // bs) for size in n]
        if self.max_batches is not None:
            steps = [min(count, self.max_batches) for count in steps]
        max_steps = steps[0]

        if self.use_corrections:
            for r in range(k):
                self._C[r, :] = corrections[order[r]]
        self._P[:, :] = global_params
        if self._V is not None:
            self._V.fill(0.0)

        self._xs = [xs[i] for i in order]
        self._ys = [ys[i] for i in order]
        losses: list[list[float]] = [[] for _ in range(k)]
        try:
            for _ in range(self.local_epochs):
                perms = []
                for r in range(k):
                    # Same shuffle draw as Dataset.batches: permute an
                    # arange on the client's own generator.
                    perm = np.arange(n[r], dtype=np.intp)
                    rngs[r].shuffle(perm)
                    perms.append(perm)
                for s in range(max_steps):
                    m_act = 0
                    while m_act < k and steps[m_act] > s:
                        m_act += 1
                    a = 0
                    while a < m_act:
                        bsz = min(bs, n[a] - s * bs)
                        b = a + 1
                        while b < m_act and min(bs, n[b] - s * bs) == bsz:
                            b += 1
                        self._train_step(a, b, bsz, s, perms, global_params,
                                         losses)
                        a = b
        finally:
            # The trainer outlives the cohort: keep no client's data.
            self._xs, self._ys = [], []

        results: list[TaskResult] = [TaskResult() for _ in range(k)]
        for r in range(k):
            seen = min(n[r], steps[r] * bs)
            results[order[r]] = TaskResult(
                losses=losses[r],
                steps=self.local_epochs * steps[r],
                samples_seen=self.local_epochs * seen,
                params=self._P[r],
                grads=self._G[r],
            )
        return results

    # ------------------------------------------------------------------
    def _train_step(self, a, b, bsz, s, perms, global_params, losses):
        m = b - a
        n_total = m * bsz
        bs = self.batch_size
        xb = self._buf(-1, "xb", (n_total,) + self.input_shape)
        yb = self._buf(-1, "yb", (n_total,), dtype=np.intp)
        for i in range(m):
            r = a + i
            idx = perms[r][s * bs:s * bs + bsz]
            np.take(self._xs[r], idx, axis=0, out=xb[i * bsz:(i + 1) * bsz])
            yb[i * bsz:(i + 1) * bsz] = self._ys[r][idx]

        self._G[a:b].fill(0.0)

        out = xb
        for handler in self.handlers:
            out = handler.forward(out, a, b, bsz)

        # Fused softmax cross-entropy: identical expression chain to
        # SoftmaxCrossEntropy, with per-client loss means.
        mx = self._buf(-1, "mx", (n_total, 1))
        np.max(out, axis=-1, keepdims=True, out=mx)
        shifted = self._buf(-1, "shifted", (n_total, self.num_classes))
        np.subtract(out, mx, out=shifted)
        expb = self._buf(-1, "expb", (n_total, self.num_classes))
        np.exp(shifted, out=expb)
        np.sum(expb, axis=-1, keepdims=True, out=mx)
        np.log(mx, out=mx)
        logp = self._buf(-1, "logp", (n_total, self.num_classes))
        np.subtract(shifted, mx, out=logp)
        ar = self._arange(n_total)
        picked = logp[ar, yb]
        for i in range(m):
            losses[a + i].append(float(-picked[i * bsz:(i + 1) * bsz].mean()))
        gl = self._buf(-1, "gl", (n_total, self.num_classes))
        np.exp(logp, out=gl)
        gl[ar, yb] -= 1.0
        gl /= bsz

        g = gl
        for li in range(len(self.handlers) - 1, -1, -1):
            g = self.handlers[li].backward(g, a, b, bsz, need_input=li > 0)

        # Row-wise optimizer, in the exact serial op order:
        # prox -> scaffold -> weight decay -> momentum -> update.
        if self.prox_mu > 0.0:
            np.subtract(self._P[a:b], global_params[None, :],
                        out=self._SP[a:b])
            self._SP[a:b] *= self.prox_mu
            self._G[a:b] += self._SP[a:b]
        if self.use_corrections:
            self._G[a:b] += self._C[a:b]
        if self.weight_decay > 0.0:
            np.multiply(self._P[a:b], self.weight_decay, out=self._S[a:b])
            self._S[a:b] += self._G[a:b]
            upd = self._S
        else:
            upd = self._G
        if self._V is not None:
            self._V[a:b] *= self.momentum
            self._V[a:b] += upd[a:b]
            upd = self._V
        np.multiply(upd[a:b], self.lr, out=self._SU[a:b])
        self._P[a:b] -= self._SU[a:b]
