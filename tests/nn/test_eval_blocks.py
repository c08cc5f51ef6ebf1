"""``Conv2d``'s evaluation forward streams the batch in sample blocks.

An evaluation forward expands at most ``EVAL_COLS_BYTES`` of im2col
columns at a time and multiplies each block into its rows of one
output.  Two contracts hold it in place:

* **Bit identity.**  Every zoo conv model, at every scale preset's
  geometry, returns exactly the logits (values and zero signs) of one
  im2col over the whole batch.  This is what pins the budget's value:
  row blocks much smaller than it reach OpenBLAS kernels that round
  differently, and these tests fail at a 256 KiB budget.
* **Bounded memory.**  One ``Server.evaluate`` of the bench-scale
  ``mnist_cnn`` over its 300-sample test set peaks well below what the
  whole-chunk expansion needed (≈ 34 MiB of traced heap), and no eval
  workspace grows past the budget.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import make_image_classification
from repro.experiments.presets import BENCH, SCALES
from repro.experiments.runner import FederationSpec, _model_builder
from repro.fl.server import Server
from repro.nn import layers
from repro.nn.conv_utils import im2col
from repro.nn.layers import EVAL_COLS_BYTES, Conv2d, ResidualBlock
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


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("model_name,dataset", ZOO)
def test_blocked_eval_is_bit_equal_to_whole_batch(
    scale, model_name, dataset, monkeypatch
):
    model = _build(model_name, dataset, scale)
    # Same seed, same weights; its forwards expand each batch whole.
    whole = _build(model_name, dataset, scale)
    sizes: dict[int, list[int]] = {}

    def recording_im2col(x, *args):
        sizes.setdefault(id(args[-1]), []).append(x.shape[0])
        return im2col(x, *args)

    for n in BATCHES:
        x = signed_values(n, (n,) + model.input_shape)
        with monkeypatch.context() as m:
            m.setattr(layers, "im2col", recording_im2col)
            sizes.clear()
            got = model.forward(x, training=False)
            if n == 256:
                # Some layer really blocks, ending in a ragged block;
                # otherwise the comparison below proves nothing.
                assert any(len(s) > 1 and s[-1] < s[0] for s in sizes.values())
        with monkeypatch.context() as m:
            m.setattr(layers, "EVAL_COLS_BYTES", sys.maxsize)
            expected = whole.forward(x, training=False)
        assert_bit_equal(got, expected)
    for conv in _convs(model):
        assert conv._ws_eval._cols.nbytes <= EVAL_COLS_BYTES


@pytest.mark.parametrize("n", [1, 7, 44, 256])
def test_conv_eval_matches_one_whole_batch_gemm(n):
    """One layer against the textbook whole-batch expansion: blocks of
    67 samples, so 256 ends in a ragged block of 55."""
    rng = np.random.default_rng(n)
    conv = Conv2d(3, 16, 3, rng, padding=1)
    rows, width = 12 * 12, 3 * 3 * 3
    assert EVAL_COLS_BYTES // (rows * width * 8) < 256
    x = signed_values(n, (n, 3, 12, 12))
    cols = im2col(x, 3, 3, 1, 1)
    expected = cols @ conv.weight.data.reshape(16, -1).T + conv.bias.data
    expected = expected.reshape(n, 12, 12, 16).transpose(0, 3, 1, 2)
    assert_bit_equal(conv.forward(x, training=False), expected)


def test_server_evaluate_memory_is_bounded():
    """The traced heap one ``Server.evaluate`` adds (bench-scale
    ``mnist_cnn``, 300 test samples) stays far below the 34 MiB the
    whole-chunk expansion took; it measures ≈ 8.2 MiB."""
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
    assert peak - before < 12 * 2**20
    convs = _convs(server.replica.model)
    assert convs
    for conv in convs:
        assert conv._ws_eval._cols.nbytes <= EVAL_COLS_BYTES
