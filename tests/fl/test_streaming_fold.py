"""The server folds each delivery as it arrives.

A sync round keeps one float64 accumulator, not the cohort's uploads:
:class:`~repro.fl.strategy.WeightedFold` adds ``n_i * x_i`` at delivery
and divides once at the barrier, and SCAFFOLD's and FedBuff's
unweighted means are running sums (:class:`~repro.fl.strategy.RunningMean`).
The properties here pin that arithmetic against whole-array references
under ``tobytes()``, and pin what screening every delivery before it
is folded buys: a NaN upload can no longer reach a stateful server
optimiser.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import blocks
from repro.compression.base import SparseDelta
from repro.fl.baselines import FedAdam, FedAvgM
from repro.fl.client import ClientUpdate
from repro.fl.strategy import RunningMean, WeightedFold
from repro.fl.validation import ValidationConfig
from repro.nn.subspace import ParamSubspace
from tests.fl.trace_digest_cases import _corrupt, _net, _sync

# Infinities and NaN fold too (the screens, not the fold, refuse them).
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_F32 = np.finfo(np.float32)
_SPECIAL = [0.0, -0.0, float(_F32.smallest_subnormal), -float(_F32.smallest_subnormal),
            float(_F32.max), -float(_F32.max), np.inf, -np.inf, np.nan]
_values32 = st.one_of(st.floats(-1e6, 1e6, width=32), st.sampled_from(_SPECIAL))


def _update(delta, n: int, subspace: ParamSubspace | None = None) -> ClientUpdate:
    extras = {} if subspace is None else {"subspace": subspace}
    return ClientUpdate(client_id=0, round_index=0, num_samples=n, delta=delta,
                        train_loss=0.0, flops=0, extras=extras)


@st.composite
def _cohort(draw):
    """``(dim, updates, covers)``: dense, sparse and partial-subspace
    updates in any order; ``covers[i]`` is the mask update ``i`` adds on."""
    dim = draw(st.integers(1, 40))
    updates, covers = [], []
    for _ in range(draw(st.integers(1, 7))):
        values = np.array(draw(st.lists(_values32, min_size=dim, max_size=dim)),
                          dtype=np.float32)
        n = draw(st.integers(1, 2**28))
        kind = draw(st.sampled_from(["dense", "sparse", "partial", "partial-sparse"]))
        mask = np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
        if kind == "dense":
            updates.append(_update(values, n))
            covers.append(np.ones(dim, dtype=bool))
            continue
        idx = np.flatnonzero(mask).astype(np.uint32)
        if kind == "sparse":
            # A DGC payload: zeros off its support, weight everywhere.
            updates.append(_update(SparseDelta(dim, idx, values[idx]), n))
            covers.append(np.ones(dim, dtype=bool))
            continue
        sub = ParamSubspace.from_mask(mask)
        delta = values if kind == "partial" else SparseDelta(dim, idx, values[idx])
        updates.append(_update(delta, n, sub))
        covers.append(mask)
    return dim, updates, covers


def _reference(dim, updates, covers) -> np.ndarray:
    """Eq. 2 per coordinate, whole-array: sum(n_i * x_i) / sum(n_i) over
    the updates covering it, in delivery order; zero where none does."""
    acc, weight = np.zeros(dim), np.zeros(dim)
    for u, cover in zip(updates, covers):
        x = u.delta
        if isinstance(x, SparseDelta):
            x = x.to_dense()
        acc[cover] += u.num_samples * np.asarray(x, dtype=np.float64)[cover]
        weight[cover] += u.num_samples
    out = np.zeros(dim)
    np.divide(acc, weight, out=out, where=weight > 0)
    return out


def _fold(updates) -> np.ndarray:
    fold = WeightedFold()
    for u in updates:
        fold.add(u)
    return fold.result()


@settings(max_examples=300, deadline=None)
@given(case=_cohort(), block=st.sampled_from([1, 2, 3, 7, 32768]))
def test_fold_is_eq2_per_coordinate_at_any_block_size(case, block):
    dim, updates, covers = case
    with mock.patch.object(blocks, "_BLOCK_ELEMENTS", block):
        got = _fold(updates)
    assert got.dtype == np.float64 and got.shape == (dim,)
    assert got.tobytes() == _reference(dim, updates, covers).tobytes()


@settings(max_examples=100, deadline=None)
@given(case=_cohort())
def test_full_subspaces_fold_as_the_unmasked_fold(case):
    dim, updates, _ = case
    unmasked = [_update(u.delta, u.num_samples) for u in updates]
    full = [_update(u.delta, u.num_samples, ParamSubspace.full(dim)) for u in updates]
    assert _fold(full).tobytes() == _fold(unmasked).tobytes()


def test_weight_stays_scalar_until_a_partial_update():
    fold = WeightedFold()
    fold.add(_update(np.ones(4, np.float32), 3))
    fold.add(_update(np.ones(4, np.float32), 2, ParamSubspace.full(4)))
    assert np.ndim(fold._weight) == 0
    fold.add(_update(np.full(4, 5.0, np.float32), 5, ParamSubspace.from_indices(4, [1])))
    assert fold._weight.tolist() == [5.0, 10.0, 5.0, 5.0]
    assert fold.result().tolist() == [1.0, 3.0, 1.0, 1.0]


def test_empty_and_sampleless_folds_have_no_result():
    fold = WeightedFold()
    fold.add(_update(np.ones(3), 0))
    assert fold.count == 0
    with pytest.raises(ValueError):
        fold.result()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 20, 40])
def test_running_mean_is_np_mean(k, dtype):
    # SCAFFOLD's delta and control means and FedBuff's buffer: a
    # running sum from +0.0, as numpy reduces, then one division.
    rng = np.random.default_rng(k)
    terms = [(rng.standard_normal(1000) * 10.0 ** rng.integers(-6, 6)).astype(dtype)
             for _ in range(k)]
    terms[0][:3] = [-0.0, np.inf, np.nan]
    terms[-1][3] = -0.0
    mean = RunningMean()
    for x in terms:
        mean.add(x)
    assert mean.count == k
    want = np.mean(terms, axis=0, dtype=np.float64)
    assert mean.result().tobytes() == want.tobytes()
    assert not np.shares_memory(mean.result(), terms[0])


@pytest.mark.parametrize(
    "make, curve",
    [
        (lambda: FedAvgM(participation_rate=1.0), [0.575, 0.675, 0.75]),
        (lambda: FedAdam(participation_rate=1.0), [0.75, 0.775, 0.85]),
    ],
    ids=["fedavgm", "fedadam"],
)
def test_a_nan_upload_never_reaches_the_server_optimiser(make, curve):
    """Default validation against NaN uploads under a stateful server
    step.  Each NaN delivery is screened before it is folded, so the
    momentum buffer / Adam moments never see it and the run learns.
    (Screening the aggregate instead, then rolling back ``params`` only,
    left the NaN step in the optimiser state: accuracy stuck at 0.25.)
    The curves are the ones every-delivery screening gave before the
    engine folded at delivery."""
    result = _sync(6, network=_net(), chaos=_corrupt("nan"),
                   validation=ValidationConfig(), strategy=make())
    assert result.accuracy_curve()[1].tolist() == curve
    assert result.total_rejected == 9
