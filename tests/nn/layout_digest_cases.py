"""One-step digests of every zoo conv model, pinned as a layout oracle.

The conv layers pass activations and gradients between each other in
whatever memory order is cheapest (``Conv2d`` emits NHWC-memory views,
and the pooling / activation layers follow their input).  That is
pure data movement: every value, and the sign of every zero, must be
what the plain C-ordered code computed.  Each case here builds one
zoo model, runs two training passes (the second on a batch two samples
shorter, so the workspaces are reused at a smaller size) and one
evaluation forward, and hashes, per component:

* ``logits``     — training-forward outputs,
* ``grads``      — the flat gradient buffer after each backward,
* ``input_grad`` — the input gradient's bytes and its sign bits,
* ``eval``       — an evaluation forward on a third batch.

Inputs are salted with exact ``+0.0`` / ``-0.0`` entries.  No batch
has a single sample: there the C-ordered code read a C-ordered NCHW
gradient through an F-ordered (H*W, C) view, the one shape whose
reshape is free, so its conv bias sums and weight GEMMs associated
differently from every larger batch (and from the fused kernel).
``Conv2d.backward`` now always reads a C-ordered matrix;
``test_batched.py`` pins single-sample steps serial = fused instead.

``python -m tests.nn.layout_digest_cases --only CASE… [--check]``
rewrites the named cases in ``data/layout_digests.json`` (see
:mod:`tests.pins`); the committed file was written by the
code that kept every pool output C-contiguous.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import build_mnist_cnn, build_resnet_mini, build_vgg_mini
from tests.nn.window_reference import signed_values
from tests.pins import regen

DIGEST_PATH = Path(__file__).parent / "data" / "layout_digests.json"

# name -> (model factory, training batch size)
CASES = {
    # The ``bench`` preset model that ``adafl_sync_cnn`` trains.
    "mnist_cnn_bench": (
        lambda: build_mnist_cnn((1, 14, 14), 10, channels=(8, 16), hidden=64, seed=0),
        20,
    ),
    # The ``fast`` preset model (``fedavg_batched_thin``, socket workers).
    "mnist_cnn_fast": (
        lambda: build_mnist_cnn((1, 10, 10), 10, channels=(4, 8), hidden=32, seed=0),
        20,
    ),
    # The paper's 28x28 geometry: valid convolutions, no padding.
    "mnist_cnn_paper": (
        lambda: build_mnist_cnn(
            (1, 28, 28), 10, channels=(20, 50), hidden=500, seed=0, same_padding=False
        ),
        4,
    ),
    "resnet_mini_flatten": (lambda: build_resnet_mini(head="flatten", seed=0), 6),
    "resnet_mini_gap": (lambda: build_resnet_mini(head="gap", seed=0), 6),
    "vgg_mini": (lambda: build_vgg_mini(seed=0), 6),
}

COMPONENTS = ("logits", "grads", "input_grad", "eval")


def digests(name: str) -> dict[str, str]:
    """Per-component sha256 of the case's two steps and one evaluation."""
    factory, batch = CASES[name]
    model = factory()
    shape = model.input_shape
    classes = model.output_shape[0]
    hashes = {key: hashlib.sha256() for key in COMPONENTS}
    loss = SoftmaxCrossEntropy()
    labels = np.random.default_rng(7)
    for step, n in enumerate((batch, batch - 2)):
        x = signed_values(100 + step, (n,) + shape)
        y = labels.integers(0, classes, size=n)
        model.zero_grad()
        logits = model.forward(x, training=True)
        loss.forward(logits, y)
        grad_in = model.backward(loss.backward())
        hashes["logits"].update(logits.tobytes())
        hashes["grads"].update(model.get_flat_grads().tobytes())
        hashes["input_grad"].update(grad_in.tobytes())
        hashes["input_grad"].update(np.signbit(grad_in).tobytes())
    evaluated = model.forward(signed_values(200, (batch,) + shape), training=False)
    hashes["eval"].update(evaluated.tobytes())
    return {key: h.hexdigest() for key, h in hashes.items()}


def main(argv=None) -> int:
    compute = {name: (lambda name=name: digests(name)) for name in sorted(CASES)}
    return regen(
        DIGEST_PATH, compute,
        lambda pins: json.dumps(pins, indent=2, sort_keys=True) + "\n", argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
