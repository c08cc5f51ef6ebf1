"""Evaluation streams a model's conv trunk in sample blocks.

``Sequential.forward(training=False)`` runs the layers before the first
``Linear`` in ⌈n / B⌉ near-equal blocks of whole samples, B being the
most samples whose widest ``Conv2d`` im2col fits ``EVAL_COLS_BYTES``,
and the ``Linear`` head on the whole batch.  Four contracts hold it:

* **Bit identity.**  Every zoo conv model, at every scale preset's
  geometry, returns exactly the logits (values and zero signs) of one
  layer-by-layer forward over the whole batch.  This is what pins the
  blocks' shape: budget-stride blocks with a one-sample ragged tail
  reach an OpenBLAS kernel that rounds differently and fail here.
* **Bounded memory.**  One ``Server.evaluate`` of the bench-scale
  ``mnist_cnn`` over its 300-sample test set adds ≈ 4.1 MiB of traced
  heap; a conv layer expanding its own blocks while the whole chunk's
  activations stayed alive added ≈ 8.2 MiB.
* **One workspace.**  A ``Conv2d`` has one, grown to the larger of its
  training batch's columns and one evaluation block.
* **Fail closed.**  An evaluation forward overwrites the columns a
  training forward cached, so ``backward`` after it raises.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import make_image_classification
from repro.experiments.presets import BENCH, SCALES
from repro.experiments.runner import FederationSpec, _model_builder
from repro.fl.server import Server
from repro.nn.conv_utils import ConvWorkspace, im2col
from repro.nn.layers import EVAL_COLS_BYTES, Conv2d, ResidualBlock
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import build_mlp
from repro.nn.sequential import Sequential
from tests.nn.window_reference import assert_bit_equal, signed_values

# (model, dataset): the paper's model for each dataset, plus the MNIST
# CNN on 3-channel input.
ZOO = [
    ("mnist_cnn", "mnist"),
    ("mnist_cnn", "cifar10"),
    ("resnet_mini", "cifar10"),
    ("vgg_mini", "cifar100"),
]
BATCHES = (256, 44, 7, 1)


def _convs(model) -> list[Conv2d]:
    found: list[Conv2d] = []
    for layer in model.layers:
        if isinstance(layer, ResidualBlock):
            found += [layer.conv1, layer.conv2]
        elif isinstance(layer, Conv2d):
            found.append(layer)
    return found


def _build(model_name: str, dataset: str, scale: str):
    spec = FederationSpec(dataset=dataset, model=model_name, scale=SCALES[scale])
    return _model_builder(spec)()


def _whole_batch(model, x):
    """The reference: every layer once over the whole batch."""
    for layer in model.layers:
        x = layer.forward(x, False)
    return x


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("model_name,dataset", ZOO)
def test_blocked_eval_is_bit_equal_to_whole_batch(scale, model_name, dataset):
    model = _build(model_name, dataset, scale)
    whole = _build(model_name, dataset, scale)  # same seed, same weights
    first = model.layers[0]
    blocks: list[int] = []
    forward = first.forward
    first.forward = lambda x, training=False: blocks.append(len(x)) or forward(x, training)
    for n in BATCHES:
        x = signed_values(n, (n,) + model.input_shape)
        blocks.clear()
        got = model.forward(x, training=False)
        assert sum(blocks) == n and max(blocks) - min(blocks) <= 1
        if n == 256 or (n == 44 and scale != "fast"):
            # The trunk really streams; otherwise the comparison below
            # proves nothing.  (The fast preset's images are small
            # enough for 44 samples to fit one block.)
            assert len(blocks) >= 2
        assert_bit_equal(got, _whole_batch(whole, x))
    for conv in _convs(model):
        assert conv._ws._cols.nbytes <= EVAL_COLS_BYTES


@pytest.mark.parametrize("n", [1, 7, 44, 256])
def test_conv_eval_matches_one_whole_batch_gemm(n):
    """A conv-only model against the textbook whole-batch expansion:
    its trunk is the whole model, streamed in blocks of at most 67
    samples, so 256 runs as four blocks of 64."""
    rng = np.random.default_rng(n)
    conv = Conv2d(3, 16, 3, rng, padding=1)
    model = Sequential([conv], (3, 12, 12))
    assert model._eval_block == EVAL_COLS_BYTES // (12 * 12 * 3 * 3 * 3 * 8) == 67
    x = signed_values(n, (n, 3, 12, 12))
    cols = im2col(x, 3, 3, 1, 1)
    expected = cols @ conv.weight.data.reshape(16, -1).T + conv.bias.data
    expected = expected.reshape(n, 12, 12, 16).transpose(0, 3, 1, 2)
    assert_bit_equal(model.forward(x, training=False), expected)


def test_mlp_trunk_runs_whole():
    model = build_mlp((1, 14, 14), 10)
    assert model._eval_block == 0  # a Flatten trunk expands no columns
    x = signed_values(0, (300, 1, 14, 14))
    assert_bit_equal(model.forward(x), _whole_batch(model, x))


def test_server_evaluate_memory_is_bounded():
    """The traced heap one ``Server.evaluate`` adds (bench-scale
    ``mnist_cnn``, 300 test samples, first call: the workspaces are
    allocated inside it).  It measures ≈ 4.1 MiB; each conv expanding
    its own blocks, with the whole chunk's conv1 and ReLU activations
    alive and a second, eval-only workspace per conv, took ≈ 8.2 MiB."""
    _, test = make_image_classification(
        n_train=10, n_test=300, num_classes=10, image_shape=(1, 14, 14), seed=0
    )
    tracemalloc.start()
    try:
        server = Server(_model_builder(FederationSpec(scale=BENCH)), test)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        server.evaluate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 5 * 2**20
    convs = _convs(server.replica.model)
    assert convs
    for conv in convs:
        assert conv._ws._cols.nbytes <= EVAL_COLS_BYTES


def _train_step(model, n):
    x = signed_values(n, (n,) + model.input_shape)
    loss = SoftmaxCrossEntropy()
    loss.forward(model.forward(x, training=True), np.arange(n) % 10)
    model.backward(loss.backward(), need_input=False)


@pytest.mark.parametrize("train_batch", [8, 64])
def test_conv_keeps_one_workspace(train_batch):
    """Training and evaluation share each conv's one workspace, which
    grows to the larger of the training batch's columns and one
    evaluation block — 64 bench-CNN samples of conv2 exceed the budget,
    8 do not."""
    model = _build("mnist_cnn", "mnist", "bench")
    _train_step(model, train_batch)
    model.forward(signed_values(1, (300,) + model.input_shape))
    _train_step(model, train_batch)
    shapes = dict(zip(map(id, model.layers), model._layer_input_shapes))
    for conv in _convs(model):
        assert [v for v in vars(conv).values() if isinstance(v, ConvWorkspace)] == [conv._ws]
        train_cols = train_batch * conv.cols_nbytes(shapes[id(conv)])
        assert conv._ws._cols.nbytes <= max(EVAL_COLS_BYTES, train_cols)


@pytest.mark.parametrize("model_name", ["mnist_cnn", "resnet_mini"])
def test_backward_after_eval_forward_raises(model_name):
    model = _build(model_name, "cifar10", "bench")
    x = signed_values(2, (8,) + model.input_shape)
    loss = SoftmaxCrossEntropy()
    loss.forward(model.forward(x, training=True), np.arange(8) % 10)
    grad = loss.backward()
    model.forward(x, training=False)  # overwrites the cached columns
    with pytest.raises(RuntimeError, match="before forward"):
        model.backward(grad)
