"""Deltas arrive at the wire's width; every reducer computes in float64.

A dense upload reaches the server as the float32 values its frame
carries, and a sub-model upload as a :class:`SparseDelta` over its
masked frame's float32 values.  numpy keeps such inputs at float32
unless told otherwise (NEP 50: ``python_float * float32_array`` is
float32), so each reducer that folds deltas states its float64
arithmetic explicitly.  The property: for float32 inputs every reducer
returns float64, bit-equal (under ``tobytes()``) to the same reducer run
on the inputs' float64 copies — the values are the same, so only the
width of the arithmetic could tell the two apart.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression.base import SparseDelta
from repro.fl.baselines import FedAsync, FedBuff, Scaffold
from repro.fl.client import ClientUpdate
from repro.fl.fedat import FedAT
from repro.fl.strategy import weighted_average
from repro.fl.validation import UpdateValidator, ValidationConfig, trimmed_mean
from repro.nn.subspace import ParamSubspace

DIM = 23
_F32_MAX = float(np.finfo(np.float32).max)

_finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_cohorts = st.lists(
    arrays(np.float32, DIM, elements=_finite32), min_size=1, max_size=6
)
# Values whose float32 products and sums round differently from float64.
_ROUNDING = [np.full(DIM, v, dtype=np.float32) for v in (0.1, 0.7, 1.3)]


def _wide(x):
    """The float64 copy of a delta: same values, float64 storage."""
    if isinstance(x, SparseDelta):
        return SparseDelta(x.dim, x.indices, x.values.astype(np.float64))
    return x.astype(np.float64)


def _update(delta, cid: int = 0, subspace=None) -> ClientUpdate:
    extras = {} if subspace is None else {"subspace": subspace}
    return ClientUpdate(
        client_id=cid, round_index=0, num_samples=cid + 1, delta=delta,
        train_loss=0.0, flops=0, extras=extras,
    )


class _Server:
    """What the asynchronous rules touch of a server; records each step."""

    def __init__(self) -> None:
        self.params = np.linspace(-1.0, 1.0, DIM)
        self.version = 0
        self.steps: list[np.ndarray] = []

    def apply_delta(self, delta: np.ndarray) -> None:
        self.steps.append(delta)
        self.params = self.params + delta

    def set_params(self, params, record_delta=True, copy=True) -> None:
        self.steps.append(params)
        self.params = params


def _sub_models(deltas):
    """Every other update covers a seeded half of the coordinates, sent
    dense or as its masked frame's sparse form."""
    out = []
    for i, d in enumerate(deltas):
        if i % 2:
            out.append(_update(d, i))
            continue
        mask = np.random.default_rng(i).random(DIM) < 0.5
        mask[i % DIM] = True
        sub = ParamSubspace.from_mask(mask)
        delta = d if i % 4 else SparseDelta(DIM, sub.indices, d[sub.indices])
        out.append(_update(delta, i, sub))
    return out


def _fedbuff(deltas):
    strategy, server = FedBuff(buffer_size=len(deltas)), _Server()
    for i, d in enumerate(deltas):
        strategy.on_update(server, _update(d, i), d, staleness=i)
    return server.steps[-1]


def _fedat(deltas):
    # Tier 0 holds the cohort; tier 1's lone client never reports.
    strategy, server = FedAT([0] * len(deltas) + [1]), _Server()
    strategy.prepare(server, [None] * (len(deltas) + 1))
    for i, d in enumerate(deltas):
        strategy.on_update(server, _update(d, i), d, staleness=0)
    return server.steps[-1]


def _scaffold_mean(deltas):
    fold = Scaffold.fold_type()
    for i, d in enumerate(deltas):
        fold.add(_update(d, i))
    return fold.result()


def _fedasync(deltas):
    strategy, server = FedAsync(), _Server()
    for i, d in enumerate(deltas):
        update = _update(d, i)
        update.extras["base_params"] = server.params.copy()
        strategy.on_update(server, update, d, staleness=i)
    return server.params


REDUCERS = {
    "weighted_average": lambda ds: weighted_average(
        [_update(d, i) for i, d in enumerate(ds)]
    ),
    "masked_weighted_average": lambda ds: weighted_average(_sub_models(ds)),
    "scaffold_mean": _scaffold_mean,
    "fedbuff": _fedbuff,
    "fedat_tier_mean": _fedat,
    "trimmed_mean": lambda ds: trimmed_mean(ds, 0.2),
    "fedasync": _fedasync,
}


@pytest.mark.parametrize("name", sorted(REDUCERS))
@settings(max_examples=60, deadline=None)
@given(deltas=_cohorts)
@example(deltas=_ROUNDING)
def test_float32_inputs_reduce_in_float64(name, deltas):
    reducer = REDUCERS[name]
    got = reducer(deltas)
    want = reducer([_wide(d) for d in deltas])
    assert want.dtype == np.float64
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(deltas=_cohorts, sparse=st.booleans())
def test_screen_verdict_is_the_float64_copys(deltas, sparse):
    validator = UpdateValidator(ValidationConfig(max_norm=1e6))
    for d in deltas:
        if sparse:
            d = SparseDelta(DIM, np.arange(0, DIM, 2), d[::2])
        assert validator.screen(d) == validator.screen(_wide(d))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_large_finite_float32_delta_is_not_corrupt(sparse):
    """Near float32 max, a float32 sum or dot overflows to inf; the
    screens sum in float64, where a finite delta stays finite."""
    delta = np.full(1000, 0.9 * _F32_MAX, dtype=np.float32)
    if sparse:
        delta = SparseDelta(4000, np.arange(0, 4000, 4), delta)
    validator = UpdateValidator(ValidationConfig(max_norm=1e100))
    assert validator.screen(delta) is None
    bad = np.array(delta.values if sparse else delta)
    bad[7] = np.nan
    assert validator.screen(bad) == "corrupt"


_F32_SPECIAL = [np.nan, np.inf, -np.inf, _F32_MAX, -_F32_MAX,
                float(np.finfo(np.float32).smallest_subnormal), -0.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(values=arrays(
    np.float32, st.integers(1, 64),
    elements=st.one_of(st.floats(width=32), st.sampled_from(_F32_SPECIAL)),
))
def test_float32_nonfinite_verdict_is_the_float64_sums(values):
    """A float32 delta is screened with ``np.isfinite``, not a float64
    sum: the verdict is the same, since no sum of fewer than 2**32
    finite float32 values overflows float64."""
    validator = UpdateValidator(ValidationConfig())
    summed = math.isfinite(float(np.sum(values, dtype=np.float64)))
    assert validator.screen(values) == (None if summed else "corrupt")
    sparse = SparseDelta(2 * values.size, np.arange(values.size) * 2, values)
    assert validator.screen(sparse) == validator.screen(values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float64_overflow_is_still_corrupt():
    """Float64 deltas keep the sum: two finite halves of an overflow."""
    big = np.full(2, np.finfo(np.float64).max)
    assert UpdateValidator(ValidationConfig()).screen(big) == "corrupt"
