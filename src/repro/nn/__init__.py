"""A from-scratch numpy neural-network substrate.

This package stands in for PyTorch in the reproduction: layers with
explicit backprop, SGD and flat-vector Adam, softmax cross-entropy, and a
model zoo matching the paper's architectures (the MNIST CNN exactly;
ResNet/VGG as depth-reduced equivalents).
"""

from repro.nn.layers import (
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Layer,
    Linear,
    MaxPool2d,
    Parameter,
    ReLU,
    ResidualBlock,
)
from repro.nn.losses import SoftmaxCrossEntropy, log_softmax
from repro.nn.models import (
    MODEL_BUILDERS,
    build_logistic,
    build_mlp,
    build_mnist_cnn,
    build_model,
    build_resnet_mini,
    build_vgg_mini,
)
from repro.nn.optim import SGD, AdamVector, Optimizer
from repro.nn.sequential import Sequential
from repro.nn.subspace import ParamLayoutEntry, ParamSubspace

__all__ = [
    "Layer",
    "Parameter",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "Flatten",
    "ResidualBlock",
    "Sequential",
    "ParamLayoutEntry",
    "ParamSubspace",
    "SoftmaxCrossEntropy",
    "log_softmax",
    "Optimizer",
    "SGD",
    "AdamVector",
    "MODEL_BUILDERS",
    "build_model",
    "build_logistic",
    "build_mlp",
    "build_mnist_cnn",
    "build_resnet_mini",
    "build_vgg_mini",
]
