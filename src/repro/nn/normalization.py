"""Normalisation layers.

``BatchNorm2d`` follows the standard formulation (Ioffe & Szegedy)
with exact backward-pass gradients and running statistics for
evaluation.  Note for federated use: the learnable affine parameters
(gamma, beta) participate in ``Sequential.get_flat_params`` and are
therefore aggregated like any weight, while the running mean/var are
*local buffers* that stay with each client — the FedBN convention,
which is also what keeps flat-parameter round-trips architecture-pure.
(A client installs its own pair into the model it borrows, see
``repro.fl.replica``.)

``GroupNorm`` is the FL-preferred alternative: it normalises per
sample (no cross-batch statistics at all), so nothing desynchronises
between clients and evaluation behaves identically to training.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer, Parameter

__all__ = ["BatchNorm2d", "GroupNorm"]


class BatchNorm2d(Layer):
    """Batch normalisation over (N, C, H, W) activations."""

    def __init__(self, num_channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 name: str = "bn"):
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.num_channels = num_channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", np.ones(num_channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(num_channels))
        # Local buffers (not part of the trainable parameter vector).
        self.running_mean = np.zeros(num_channels)
        self.running_var = np.ones(num_channels)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"BatchNorm2d expected (N, {self.num_channels}, H, W), got {x.shape}"
            )
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            # In-place EMA (same evaluation order as the rebinding
            # form → bit-identical); these buffers stay layer-local
            # and must never become views into a flat parameter
            # buffer (the FedBN convention).
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mean
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var

        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )
        if training:
            self._cache = (x_hat, inv_std, x.shape)
        return out

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x_hat, inv_std, shape = self._cache
        n, _, h, w = shape
        m = n * h * w  # elements per channel

        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        if not need_input:
            self._cache = None
            return None

        # Standard batch-norm input gradient.
        g = grad_out * self.gamma.data[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_in = (
            inv_std[None, :, None, None]
            * (g - sum_g / m - x_hat * sum_gx / m)
        )
        self._cache = None
        return grad_in

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c = input_shape[0]
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        c, h, w = input_shape
        return 4 * c * h * w  # normalise + scale + shift, per element


class GroupNorm(Layer):
    """Group normalisation over (N, C, H, W) activations (Wu & He).

    Channels are split into ``num_groups`` groups; each sample's group
    is normalised independently, so there is no batch coupling and no
    train/eval mode distinction — the property that makes GroupNorm the
    normalisation of choice in federated learning.
    """

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5,
                 name: str = "gn"):
        if num_groups <= 0 or num_channels <= 0:
            raise ValueError("num_groups and num_channels must be positive")
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels ({num_channels}) must be divisible by "
                f"num_groups ({num_groups})"
            )
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", np.ones(num_channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(num_channels))
        self._cache: tuple | None = None

    def _grouped(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        return x.reshape(n, self.num_groups, c // self.num_groups, h, w)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"GroupNorm expected (N, {self.num_channels}, H, W), got {x.shape}"
            )
        grouped = self._grouped(x)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        var = grouped.var(axis=(2, 3, 4), keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * inv_std).reshape(x.shape)
        out = (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )
        if training:
            self._cache = (x_hat, inv_std, x.shape)
        return out

    def backward(
        self, grad_out: np.ndarray, need_input: bool = True
    ) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x_hat, inv_std, shape = self._cache
        n, c, h, w = shape
        m = (c // self.num_groups) * h * w  # elements per group

        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        if not need_input:
            self._cache = None
            return None

        g = (grad_out * self.gamma.data[None, :, None, None])
        g_grouped = self._grouped(g)
        x_hat_grouped = self._grouped(x_hat)
        sum_g = g_grouped.sum(axis=(2, 3, 4), keepdims=True)
        sum_gx = (g_grouped * x_hat_grouped).sum(axis=(2, 3, 4), keepdims=True)
        grad_grouped = inv_std * (
            g_grouped - sum_g / m - x_hat_grouped * sum_gx / m
        )
        self._cache = None
        return grad_grouped.reshape(shape)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c = input_shape[0]
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        c, h, w = input_shape
        return 4 * c * h * w
