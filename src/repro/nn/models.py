"""Model zoo.

``build_mnist_cnn`` follows the paper's baseline CNN exactly in
structure: two 5x5 convolutions (20 then 50 output channels), each
followed by 2x2 max pooling, then fully connected layers.  The paper
runs it on 28x28 MNIST; here the convolutions use same-padding so the
architecture works on the smaller synthetic images this reproduction
trains on (see DESIGN.md, substitutions table).

``build_resnet_mini`` and ``build_vgg_mini`` are the depth-reduced
stand-ins for ResNet-50 and VGG-Net used in the paper's CIFAR
experiments: they preserve the architectural idiom (residual blocks /
stacked 3x3 VGG blocks) at a CPU-tractable size.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
)
from repro.nn.sequential import Sequential

__all__ = [
    "build_mlp",
    "build_mnist_cnn",
    "build_resnet_mini",
    "build_vgg_mini",
]


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def build_mlp(
    input_shape: tuple[int, ...],
    num_classes: int,
    hidden: tuple[int, ...] = (32,),
    seed: int | np.random.Generator = 0,
) -> Sequential:
    """Small multilayer perceptron used in fast tests."""
    rng = _as_rng(seed)
    features = int(np.prod(input_shape))
    layers: list = [Flatten()]
    prev = features
    for i, width in enumerate(hidden):
        layers.append(Linear(prev, width, rng, name=f"fc{i}"))
        layers.append(ReLU())
        prev = width
    layers.append(Linear(prev, num_classes, rng, name="head"))
    return Sequential(layers, input_shape)


def build_mnist_cnn(
    input_shape: tuple[int, ...] = (1, 14, 14),
    num_classes: int = 10,
    channels: tuple[int, int] = (20, 50),
    hidden: int = 128,
    seed: int | np.random.Generator = 0,
    same_padding: bool = True,
) -> Sequential:
    """The paper's baseline CNN: conv5x5(20) -> pool2 -> conv5x5(50) -> pool2 -> FC.

    ``same_padding=True`` (the default) keeps the two 5x5 stages valid
    on the small synthetic images this reproduction trains on.  With
    ``same_padding=False``, the paper's 28x28 MNIST geometry, and
    ``channels=(20, 50), hidden=500`` this is the exact ~430k-parameter
    (1.64 MB float32) architecture from Wang et al. (INFOCOM'20) that
    the paper reuses.
    """
    rng = _as_rng(seed)
    c, h, w = input_shape
    pad = 2 if same_padding else 0
    shrink = 0 if same_padding else 4  # a valid 5x5 conv loses 4 pixels
    h1, w1 = (h - shrink) // 2, (w - shrink) // 2
    h2, w2 = (h1 - shrink) // 2, (w1 - shrink) // 2
    if h2 < 1 or w2 < 1:
        raise ValueError("input too small for two conv+pool stages")
    c1, c2 = channels
    layers = [
        Conv2d(c, c1, 5, rng, padding=pad, name="conv1"),
        ReLU(),
        MaxPool2d(2),
        Conv2d(c1, c2, 5, rng, padding=pad, name="conv2"),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(c2 * h2 * w2, hidden, rng, name="fc1"),
        ReLU(),
        Linear(hidden, num_classes, rng, name="fc2"),
    ]
    return Sequential(layers, input_shape)


def build_resnet_mini(
    input_shape: tuple[int, ...] = (3, 12, 12),
    num_classes: int = 10,
    width: int = 16,
    num_blocks: int = 2,
    seed: int | np.random.Generator = 0,
    head: str = "flatten",
) -> Sequential:
    """Residual CNN — the scaled stand-in for the paper's ResNet-50.

    ``head`` selects the classifier: ``"flatten"`` (2x2 max pool then a
    linear layer over the spatial map — default, retains the spatial
    information the synthetic prototype classes live in) or ``"gap"``
    (ResNet's original global-average-pool head).
    """
    rng = _as_rng(seed)
    c, h, w = input_shape
    layers: list = [
        Conv2d(c, width, 3, rng, padding=1, name="stem"),
        ReLU(),
    ]
    for i in range(num_blocks):
        layers.append(ResidualBlock(width, rng, name=f"block{i}"))
    if head == "gap":
        layers.append(GlobalAvgPool2d())
        layers.append(Linear(width, num_classes, rng, name="head"))
    elif head == "flatten":
        layers.append(MaxPool2d(2))
        layers.append(Flatten())
        layers.append(Linear(width * (h // 2) * (w // 2), num_classes, rng, name="head"))
    else:
        raise ValueError(f"unknown head {head!r}; expected 'flatten' or 'gap'")
    return Sequential(layers, input_shape)


def build_vgg_mini(
    input_shape: tuple[int, ...] = (3, 12, 12),
    num_classes: int = 100,
    widths: tuple[int, int] = (16, 32),
    hidden: int = 64,
    seed: int | np.random.Generator = 0,
) -> Sequential:
    """VGG-style CNN — the scaled stand-in for the paper's VGG-Net.

    Two blocks of (conv3x3, ReLU, conv3x3, ReLU, maxpool2) followed by
    a fully connected classifier, mirroring VGG's stacked-3x3 idiom.
    """
    rng = _as_rng(seed)
    c, h, w = input_shape
    if h < 4 or w < 4:
        raise ValueError("input too small for two pooling stages")
    layers: list = []
    prev = c
    for i, width in enumerate(widths):
        layers.extend(
            [
                Conv2d(prev, width, 3, rng, padding=1, name=f"b{i}.conv1"),
                ReLU(),
                Conv2d(width, width, 3, rng, padding=1, name=f"b{i}.conv2"),
                ReLU(),
                MaxPool2d(2),
            ]
        )
        prev = width
    layers.append(Flatten())
    feat = prev * (h // 4) * (w // 4)
    layers.append(Linear(feat, hidden, rng, name="fc1"))
    layers.append(ReLU())
    layers.append(Linear(hidden, num_classes, rng, name="fc2"))
    return Sequential(layers, input_shape)
