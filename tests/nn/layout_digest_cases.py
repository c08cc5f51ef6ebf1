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

The pins encode a two-thread OpenBLAS: its GEMMs split the work by
thread count, so the training logits of some cases round differently
under another count.  :func:`pinned_digests` therefore computes in a
child process with every BLAS thread variable set to
``BLAS_THREADS``, whatever the caller's setting.

``python -m tests.nn.layout_digest_cases --only CASE… [--check]``
rewrites the named cases in ``data/layout_digests.json`` (see
:mod:`tests.pins`); the committed file was written by the
code that kept every pool output C-contiguous.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
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


BLAS_THREADS = 2
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CHILD = (
    "import json, sys\n"
    "from tests.nn.layout_digest_cases import digests\n"
    "print(json.dumps({name: digests(name) for name in sys.argv[1:]}))"
)


def pinned_digests(names) -> dict[str, dict[str, str]]:
    """:func:`digests` of each named case, computed in a child process
    whose BLAS runs ``BLAS_THREADS`` threads (the pins' setting)."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    env.update((var, str(BLAS_THREADS)) for var in _BLAS_VARS)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *names],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode:
        raise RuntimeError(f"layout digest child failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    compute = {name: (lambda name=name: pinned_digests([name])[name]) for name in sorted(CASES)}
    return regen(
        DIGEST_PATH, compute,
        lambda pins: json.dumps(pins, indent=2, sort_keys=True) + "\n", argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
