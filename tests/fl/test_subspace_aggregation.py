"""Masked aggregation laws and subspace-restricted local training.

``WeightedFold`` must reduce to the classic weighted mean when every
update is full-width, renormalise per coordinate when coverage is
partial, and leave uncovered coordinates untouched; a client trained
on a subspace must return a delta that is *exactly* zero off it."""

import numpy as np
import pytest

from repro.fl.client import Client, ClientUpdate
from repro.fl.config import LocalTrainingConfig
from repro.fl.strategy import WeightedFold
from repro.nn.subspace import ParamSubspace


def _update(delta, num_samples, subspace=None):
    extras = {} if subspace is None else {"subspace": subspace}
    return ClientUpdate(
        client_id=0,
        round_index=0,
        num_samples=num_samples,
        delta=np.asarray(delta, dtype=np.float64),
        train_loss=0.0,
        flops=0,
        extras=extras,
    )


class TestMaskedWeightedAverage:
    def test_full_updates_match_classic_mean(self, rng):
        a, b = rng.normal(size=12), rng.normal(size=12)
        out = WeightedFold.of([_update(a, 3), _update(b, 1)]).result()
        assert np.allclose(out, (3 * a + b) / 4)

    def test_explicit_full_subspace_is_equivalent(self, rng):
        a, b = rng.normal(size=12), rng.normal(size=12)
        dense = WeightedFold.of([_update(a, 3), _update(b, 1)]).result()
        full = ParamSubspace.full(12)
        masked = WeightedFold.of(
            [_update(a, 3, full), _update(b, 1, full)]
        ).result()
        assert np.array_equal(dense, masked)

    def test_per_coordinate_renormalisation(self):
        # Client A covers {0,1}, client B covers {1,2}.  Coordinate 1
        # averages both; 0 and 2 take their sole coverer verbatim.
        sub_a = ParamSubspace.from_indices(3, [0, 1])
        sub_b = ParamSubspace.from_indices(3, [1, 2])
        a = sub_a.expand(np.array([2.0, 4.0]))
        b = sub_b.expand(np.array([8.0, 6.0]))
        out = WeightedFold.of(
            [_update(a, 1, sub_a), _update(b, 3, sub_b)]
        ).result()
        assert np.allclose(out, [2.0, (4.0 + 3 * 8.0) / 4.0, 6.0])

    def test_uncovered_coordinates_stay_zero(self):
        sub = ParamSubspace.from_indices(5, [1, 3])
        delta = sub.expand(np.array([1.0, -1.0]))
        out = WeightedFold.of([_update(delta, 2, sub)]).result()
        assert np.array_equal(out == 0.0, ~sub.mask())

    def test_zero_sample_update_ignored(self, rng):
        a = rng.normal(size=6)
        junk = rng.normal(size=6)
        out = WeightedFold.of([_update(a, 5), _update(junk, 0)]).result()
        assert np.allclose(out, a)

    def test_bit_equal_to_the_expressions_it_replaced(self, rng):
        dim = 1000
        subs = [None, ParamSubspace.from_indices(dim, rng.choice(dim, 300, replace=False)),
                ParamSubspace.full(dim), None,
                ParamSubspace.from_indices(dim, rng.choice(dim, 50, replace=False))]
        updates = [
            _update(rng.normal(size=dim) * 10.0 ** rng.integers(-6, 6), int(n), sub)
            for n, sub in zip(rng.integers(1, 90, size=len(subs)), subs)
        ]
        acc, weight = np.zeros(dim), np.zeros(dim)
        for u in updates:
            w, sub = float(u.num_samples), u.extras.get("subspace")
            if sub is None or sub.is_full:
                acc += w * u.delta
                weight += w
            else:
                acc[sub.indices] += w * u.delta[sub.indices]
                weight[sub.indices] += w
        expected = np.zeros(dim)
        np.divide(acc, weight, out=expected, where=weight > 0)
        assert WeightedFold.of(updates).result().tobytes() == expected.tobytes()

    def test_empty_and_sampleless_rejected(self):
        with pytest.raises(ValueError):
            WeightedFold.of([]).result()
        with pytest.raises(ValueError):
            WeightedFold.of([_update(np.zeros(3), 0)]).result()


class TestSubspaceLocalTraining:
    def _client(self, tiny_train, tiny_model_fn):
        return Client(0, tiny_train, tiny_model_fn, seed=0)

    def test_delta_zero_off_subspace(self, tiny_train, tiny_model_fn):
        client = self._client(tiny_train, tiny_model_fn)
        dim = client.replica.model.num_params
        params = client.replica.model.get_flat_params().copy()
        sub = ParamSubspace.sample(
            client.replica.model.param_layout(), 0.4, np.random.default_rng(3)
        )
        config = LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1, momentum=0.9)
        update = client.local_train(params, config, subspace=sub)
        off = sub.complement().indices
        assert update.delta.size == dim
        assert np.all(update.delta[off] == 0.0)
        # And the subspace itself actually moved.
        assert np.any(update.delta[sub.indices] != 0.0)

    def test_full_subspace_matches_plain_training(self, tiny_train, tiny_model_fn):
        config = LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1)
        plain = self._client(tiny_train, tiny_model_fn)
        params = plain.replica.model.get_flat_params().copy()
        base = plain.local_train(params.copy(), config)
        routed = self._client(tiny_train, tiny_model_fn)
        full = routed.replica.model.full_subspace()
        via = routed.local_train(params.copy(), config, subspace=full)
        assert np.array_equal(base.delta, via.delta)

    def test_dim_mismatch_rejected(self, tiny_train, tiny_model_fn):
        client = self._client(tiny_train, tiny_model_fn)
        params = client.replica.model.get_flat_params().copy()
        bad = ParamSubspace.from_indices(params.size + 1, [0])
        with pytest.raises(ValueError):
            client.local_train(
                params, LocalTrainingConfig(batch_size=8), subspace=bad
            )
