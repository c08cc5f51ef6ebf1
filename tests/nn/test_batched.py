"""Serial-equivalence properties of the fused multi-client kernel.

``repro.nn.batched.MultiClientTrainer`` stacks K clients' per-step
minibatches into one tensor and runs a single fused forward/backward
per step; the whole point is that every client's trajectory stays
**bit-identical** to ``Client.local_train``'s serial loop.  These
tests drive serial and fused cohorts from identical initial state and
assert ``np.array_equal`` on deltas, flat gradients and losses — over
two consecutive rounds, so RNG-stream continuation (epoch shuffles) is
covered, and under partial-batch geometries (shard size not divisible by batch size), the regime where
layout and reduction-order bugs actually surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_image_classification
from repro.fl.client import Client
from repro.fl.config import LocalTrainingConfig
from repro.nn.batched import MultiClientTrainer, UnsupportedModelError, architecture
from repro.nn.layers import Conv2d, Flatten, GlobalAvgPool2d, Linear, MaxPool2d, ReLU
from repro.nn.models import build_mlp, build_mnist_cnn, build_resnet_mini
from repro.nn.sequential import Sequential

pytestmark = pytest.mark.batched

SHAPE = (1, 8, 8)


def _cohorts(model_fn, n_train: int, num_clients: int, seed_base: int = 30):
    """Two freshly built, identically seeded client cohorts."""
    train, _ = make_image_classification(
        n_train=n_train, n_test=8, num_classes=4, image_shape=SHAPE,
        noise_std=0.4, seed=7,
    )
    parts = np.array_split(np.arange(len(train)), num_clients)

    def build():
        return [
            Client(i, train.subset(parts[i]), model_fn, seed=seed_base + i)
            for i in range(num_clients)
        ]

    return build(), build()


def _assert_rounds_equal(serial, fused, cfg: LocalTrainingConfig,
                         rounds: int = 2, scaffold: bool = False) -> None:
    """Serial vs fused trajectories must agree bitwise for ``rounds``."""
    gp = serial[0].replica.model.get_flat_params().copy()
    sc = np.zeros_like(gp) if scaffold else None
    kw = {"server_control": sc} if scaffold else {}
    # One trainer for every round: it is bound to the architecture, K
    # and the config, and takes the cohort per ``run``.
    trainer = MultiClientTrainer(
        fused[0].replica.model, len(fused),
        local_epochs=cfg.local_epochs, batch_size=cfg.batch_size,
        lr=cfg.lr, momentum=cfg.momentum,
        prox_mu=cfg.prox_mu, use_corrections=scaffold,
    )
    for rnd in range(rounds):
        # Serial clients are standalone (a private replica each), so
        # their final gradients can be read back per client.
        updates, serial_grads = [], []
        for c in serial:
            updates.append(c.local_train(gp, cfg, round_index=rnd, **kw))
            serial_grads.append(c.replica.model.get_flat_grads().copy())

        corrections = None
        if scaffold:
            for c in fused:
                if c.control_variate is None:
                    c.control_variate = np.zeros_like(gp)
            corrections = [sc - c.control_variate for c in fused]
        results = trainer.run(
            gp,
            [c.dataset.x for c in fused],
            [c.dataset.y for c in fused],
            [c._rng for c in fused],
            corrections=corrections,
        )

        for i, (u, res) in enumerate(zip(updates, results)):
            local = res.params
            assert np.array_equal(u.delta, local - gp), (rnd, i, "delta")
            assert np.array_equal(serial_grads[i], res.grads), (rnd, i, "grads")
            fused_loss = float(np.mean(res.losses)) if res.losses else 0.0
            assert u.train_loss == fused_loss, (rnd, i, "loss")
            if scaffold:
                new_control = (
                    fused[i].control_variate - sc
                    + (gp - local) / (res.steps * cfg.lr)
                )
                assert np.array_equal(
                    u.extras["control_delta"],
                    new_control - fused[i].control_variate,
                ), (rnd, i, "control")
                fused[i].control_variate = new_control
        gp = gp - 0.3 * np.mean([u.delta for u in updates], axis=0)


# ---------------------------------------------------------------------------
# Optimiser-variant coverage on fixed architectures
# ---------------------------------------------------------------------------

def _mlp():
    return build_mlp(SHAPE, num_classes=4, hidden=(12,), seed=99)


def _cnn():
    return build_mnist_cnn(SHAPE, num_classes=4, channels=(4, 6),
                           hidden=16, seed=5)


CONFIG_CASES = {
    "plain": LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
    "momentum": LocalTrainingConfig(local_epochs=2, batch_size=8, lr=0.1, momentum=0.9),
    "prox": LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1, prox_mu=0.01),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_mlp_configs_bit_identical(case: str) -> None:
    serial, fused = _cohorts(_mlp, n_train=80, num_clients=5)
    _assert_rounds_equal(serial, fused, CONFIG_CASES[case])


def test_mlp_scaffold_corrections_bit_identical() -> None:
    serial, fused = _cohorts(_mlp, n_train=80, num_clients=5)
    _assert_rounds_equal(serial, fused, CONFIG_CASES["plain"], scaffold=True)


def test_cnn_bit_identical() -> None:
    serial, fused = _cohorts(_cnn, n_train=60, num_clients=4)
    cfg = LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.05)
    _assert_rounds_equal(serial, fused, cfg)


def test_cnn_ragged_shards_bit_identical() -> None:
    # 73 samples over 5 clients -> shard sizes 15,15,15,14,14: every
    # client ends each epoch on a partial batch of a different size.
    serial, fused = _cohorts(_cnn, n_train=73, num_clients=5)
    cfg = LocalTrainingConfig(local_epochs=2, batch_size=4, lr=0.05,
                              momentum=0.5)
    _assert_rounds_equal(serial, fused, cfg)


@pytest.mark.parametrize("n_train", [17, 18])
def test_cnn_single_sample_steps_bit_identical(n_train: int) -> None:
    # Two shards of 9 (or 9 and 8) at batch 4: each epoch ends on a
    # one-sample step for both clients at once (or for one alone).  A
    # one-sample conv gradient reshapes to an F-ordered view for free,
    # so both paths must read it as a C-ordered matrix.
    serial, fused = _cohorts(_cnn, n_train=n_train, num_clients=2)
    cfg = LocalTrainingConfig(local_epochs=2, batch_size=4, lr=0.05)
    _assert_rounds_equal(serial, fused, cfg)


# ---------------------------------------------------------------------------
# Property test: random layer stacks
# ---------------------------------------------------------------------------

def _random_stack(seed: int) -> list:
    """A deterministic 'random' conv stack drawn from the supported set.

    Fresh RNGs are built from ``seed`` on every call, so repeated calls
    (one per client model) produce identical layers.
    """
    pick = np.random.default_rng(seed)
    init = np.random.default_rng(1000 + seed)
    layers: list = []
    c, h, w = SHAPE
    for _ in range(int(pick.integers(1, 4))):
        oc = int(pick.integers(2, 7))
        layers.append(Conv2d(c, oc, 3, init, padding=1, bias=bool(pick.integers(0, 2))))
        c = oc
        if pick.integers(0, 2):
            layers.append(ReLU())
        if pick.integers(0, 2) and h % 2 == 0:
            layers.append(MaxPool2d(2))
            h //= 2
            w //= 2
    layers.append(Flatten())
    if pick.integers(0, 2):
        layers.extend([Linear(c * h * w, 10, init), ReLU()])
        layers.append(Linear(10, 4, init))
    else:
        layers.append(Linear(c * h * w, 4, init, bias=False))
    return layers


@pytest.mark.parametrize("seed", range(6))
def test_random_stacks_bit_identical(seed: int) -> None:
    def model_fn():
        return Sequential(_random_stack(seed), input_shape=SHAPE)

    assert architecture(model_fn()) is not None
    serial, fused = _cohorts(model_fn, n_train=60, num_clients=4)
    # batch_size 4 over 15-sample shards: partial final batches, the
    # geometry where stacked-buffer carving is most error-prone.  No
    # layer normalises, so the step stays small enough not to diverge
    # (NaN trajectories would compare unequal to themselves).
    cfg = LocalTrainingConfig(local_epochs=2, batch_size=4, lr=0.01,
                              momentum=0.9)
    _assert_rounds_equal(serial, fused, cfg)


# ---------------------------------------------------------------------------
# Support surface
# ---------------------------------------------------------------------------

def test_residual_model_not_supported() -> None:
    model = build_resnet_mini(SHAPE, num_classes=4, seed=3)
    assert architecture(model) is None


def test_layer_outside_the_five_handlers_not_supported() -> None:
    r = np.random.default_rng(0)
    model = Sequential(
        [Conv2d(1, 4, 3, r, padding=1), GlobalAvgPool2d(), Linear(4, 4, r)],
        input_shape=SHAPE,
    )
    assert architecture(model) is None
    with pytest.raises(UnsupportedModelError):
        MultiClientTrainer(model, 2, local_epochs=1, batch_size=4, lr=0.1)


def test_supported_models() -> None:
    assert architecture(_mlp()) is not None
    assert architecture(_cnn()) is not None
