"""Sequential model container with a zero-copy flat-parameter engine.

Federated learning treats a model as one flat vector `w ∈ R^d`
(Eq. 1 of the paper), so :class:`Sequential` owns that vector
directly: at construction it allocates one contiguous float64 backing
buffer for parameters and one for gradients, and rebinds every
``Parameter.data`` / ``Parameter.grad`` to a reshaped *view* into
them.  ``get_flat_params`` / ``get_flat_grads`` therefore return the
backing buffers in O(1) with no copy, and ``set_flat_params`` /
``set_flat_grads`` are a single vectorised assignment.

Aliasing contract (see docs/architecture.md, "Parameter memory
model"): the arrays returned by the getters ARE the live model
storage — mutating them in place mutates the model, which is exactly
what the FedProx/SCAFFOLD per-minibatch corrections exploit.  Callers
that need a snapshot must ``.copy()``.  The setters always copy the
incoming vector, so foreign arrays are never aliased.

A pickled model holds each backing buffer once (``Parameter`` pickles
a view as buffer + offset), and the views alias the buffers again
after loading.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import EVAL_COLS_BYTES, Layer, Linear, Parameter
from repro.nn.subspace import ParamLayoutEntry, ParamSubspace

__all__ = ["Sequential"]


class Sequential:
    """An ordered stack of layers run back-to-back."""

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...]):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        # Validate shape propagation eagerly so misconfigured models
        # fail at construction, not mid-experiment.
        self._layer_input_shapes: list[tuple[int, ...]] = []
        shape = self.input_shape
        for layer in self.layers:
            self._layer_input_shapes.append(shape)
            shape = layer.output_shape(shape)
        self.output_shape = shape
        # Evaluation streams the trunk (the layers before the first
        # Linear) in blocks of at most ``_eval_block`` samples, the most
        # whose widest im2col fits EVAL_COLS_BYTES; 0 (no conv) runs whole.
        self._trunk = next(
            (i for i, layer in enumerate(self.layers) if isinstance(layer, Linear)),
            len(self.layers),
        )
        trunk = zip(self.layers[: self._trunk], self._layer_input_shapes)
        widest = max((layer.cols_nbytes(s) for layer, s in trunk), default=0)
        self._eval_block = max(1, EVAL_COLS_BYTES // widest) if widest else 0

        # Zero-copy flat-parameter engine: move every parameter into
        # one contiguous backing buffer (and its gradient into a
        # second), keeping each Parameter as a reshaped view.
        self._params: list[Parameter] = []
        for layer in self.layers:
            self._params.extend(layer.parameters())
        # Where backward may stop when nobody reads the input gradient.
        self._first_trainable = next(
            (i for i, layer in enumerate(self.layers) if layer.parameters()), 0
        )
        d = sum(p.size for p in self._params)
        self._param_buf = np.empty(d, dtype=np.float64)
        self._grad_buf = np.zeros(d, dtype=np.float64)
        offset = 0
        for p in self._params:
            end = offset + p.size
            self._param_buf[offset:end] = p.data.ravel()
            p.data = self._param_buf[offset:end].reshape(p.data.shape)
            p.grad = self._grad_buf[offset:end].reshape(p.data.shape)
            offset = end
        self._flat_param = Parameter.from_views(
            "flat", self._param_buf, self._grad_buf
        )

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers in order.

        Evaluation runs the trunk in ⌈n / _eval_block⌉ near-equal sample
        blocks (a small ragged one can take an OpenBLAS kernel that
        rounds differently), each written into its rows of one trunk
        output, and the head on the whole batch, so its GEMMs see the
        rows they always do.  Larger blocks come first: the first sizes
        the conv workspaces, which the rest then fit.
        """
        layers, out, n = self.layers, x, x.shape[0]
        if not training and 0 < self._eval_block < n:
            count = -(-n // self._eval_block)
            size, extra = divmod(n, count)
            bounds = [i * size + min(i, extra) for i in range(count + 1)]
            out = None
            for start, stop in zip(bounds, bounds[1:]):
                part = x[start:stop]
                for layer in layers[: self._trunk]:
                    part = layer.forward(part, False)
                if out is None:  # in the memory order a whole batch has
                    out = np.empty_like(part, shape=(n, *part.shape[1:]))
                out[start:stop] = part
            layers = layers[self._trunk :]
        for layer in layers:
            out = layer.forward(out, training)
        return out

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        """Backpropagate through all layers, accumulating parameter grads.

        The returned input gradient may be a view into a layer's
        internal workspace; it is only valid until the next
        forward/backward call through the model.

        A training step reads parameter gradients only.  With
        ``need_input=False`` the pass ends at the first layer that has
        parameters, which skips its own input gradient (for ``Conv2d``
        a GEMM plus a col2im scatter); the parameter-free layers ahead
        of it are not visited, and the result is ``None``.  The flat
        gradient buffer is bit-equal either way.
        """
        stop = 0 if need_input else self._first_trainable
        grad = grad_out
        for index in range(len(self.layers) - 1, stop, -1):
            grad = self.layers[index].backward(grad)
        return self.layers[stop].backward(grad, need_input)

    def predict(self, x: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Class predictions (argmax over the final axis).

        ``batch_size`` evaluates in chunks, bounding the head's
        activations (:meth:`forward` already streams a conv trunk in
        bit-exact sample blocks).  The logits are not bit-equal across
        chunk sizes: a GEMM over few rows takes an OpenBLAS kernel that
        rounds differently — the fully connected
        head's do below ~32 rows, as a ragged last chunk has — so they
        differ in the last bits (up to ~1e-14 on ``build_mnist_cnn``),
        but the argmax agrees barring near-ties closer than that.
        """
        if batch_size is None or x.shape[0] <= batch_size:
            return np.argmax(self.forward(x, training=False), axis=-1)
        if batch_size <= 0:
            raise ValueError("batch_size must be positive or None")
        preds = np.empty(x.shape[0], dtype=np.int64)
        for start in range(0, x.shape[0], batch_size):
            stop = start + batch_size
            preds[start:stop] = np.argmax(
                self.forward(x[start:stop], training=False), axis=-1
            )
        return preds

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def flat_parameter(self) -> Parameter:
        """The whole model as one :class:`Parameter` over the backing buffers.

        Optimising ``[model.flat_parameter()]`` is mathematically (and
        bit-for-bit) identical to optimising ``model.parameters()``
        with the same elementwise rule, but runs one vectorised update
        instead of a Python loop over layers.
        """
        return self._flat_param

    def zero_grad(self) -> None:
        self._grad_buf.fill(0.0)

    @property
    def num_params(self) -> int:
        """Total scalar parameter count ``d``."""
        return self._param_buf.size

    def get_flat_params(self) -> np.ndarray:
        """The contiguous parameter backing buffer (O(1), no copy).

        This is live storage shared with every ``Parameter.data``;
        callers needing a snapshot must copy.
        """
        return self._param_buf

    def set_flat_params(self, vector: np.ndarray) -> None:
        """Copy a flat vector into the parameter backing buffer."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1 or vector.size != self.num_params:
            raise ValueError(
                f"expected flat vector of size {self.num_params}, got shape {vector.shape}"
            )
        if vector is not self._param_buf:
            self._param_buf[...] = vector

    def get_flat_grads(self) -> np.ndarray:
        """The contiguous gradient backing buffer (O(1), no copy).

        Shares memory with every ``Parameter.grad``; in-place updates
        (``grads += correction``) are the supported way to apply flat
        gradient corrections.
        """
        return self._grad_buf

    def set_flat_grads(self, vector: np.ndarray) -> None:
        """Copy a flat vector into the gradient backing buffer."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1 or vector.size != self.num_params:
            raise ValueError(
                f"expected flat vector of size {self.num_params}, got shape {vector.shape}"
            )
        if vector is not self._grad_buf:
            self._grad_buf[...] = vector

    # ------------------------------------------------------------------
    # Parameter subspaces
    # ------------------------------------------------------------------
    def param_layout(self) -> list[ParamLayoutEntry]:
        """Per-parameter ``(name, offset, size)`` spans of the flat buffer.

        The order matches the backing-buffer layout built at
        construction, so :meth:`ParamSubspace.sample` can stratify a
        mask over layers without re-deriving offsets.
        """
        layout: list[ParamLayoutEntry] = []
        offset = 0
        for p in self._params:
            layout.append(ParamLayoutEntry(p.name, offset, p.size))
            offset += p.size
        return layout

    def full_subspace(self) -> ParamSubspace:
        """The identity subspace over this model's flat buffer."""
        return ParamSubspace.full(self.num_params)

    def get_flat_params_subspace(self, subspace: ParamSubspace) -> np.ndarray:
        """The covered coordinates of the parameter buffer.

        A full subspace returns the live backing buffer itself (the
        legacy :meth:`get_flat_params` contract, O(1)); a partial one
        returns a fresh gathered array.
        """
        if subspace.dim != self.num_params:
            raise ValueError(
                f"subspace dim {subspace.dim} != model dim {self.num_params}"
            )
        return subspace.gather(self._param_buf)

    def set_flat_params_subspace(
        self, subspace: ParamSubspace, values: np.ndarray
    ) -> None:
        """Write subspace values into the parameter buffer in place.

        Uncovered coordinates keep their current values — the
        sub-model semantics of Adaptive Federated Dropout, where the
        server's weights survive outside the client's mask.
        """
        if subspace.dim != self.num_params:
            raise ValueError(
                f"subspace dim {subspace.dim} != model dim {self.num_params}"
            )
        values = np.asarray(values, dtype=np.float64)
        subspace.scatter(values, self._param_buf)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def flops_per_sample(self) -> int:
        """Forward multiply-accumulate count for a single input sample."""
        total = 0
        for layer, shape in zip(self.layers, self._layer_input_shapes):
            total += layer.flops(shape)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential([{names}], d={self.num_params})"
