"""Tests for the FL client."""

import numpy as np
import pytest

from repro.fl.client import Client
from repro.fl.config import LocalTrainingConfig


@pytest.fixture
def client(tiny_train, tiny_model_fn):
    return Client(0, tiny_train, tiny_model_fn, seed=1)


@pytest.fixture
def global_params(tiny_model_fn):
    return tiny_model_fn().get_flat_params()


CFG = LocalTrainingConfig(local_epochs=1, batch_size=16, lr=0.1)


class TestConstruction:
    def test_empty_dataset_rejected(self, tiny_train, tiny_model_fn):
        empty = tiny_train.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            Client(0, empty, tiny_model_fn)

    def test_properties(self, client, tiny_train):
        assert client.num_samples == len(tiny_train)
        assert client.model_dim > 0


class TestLocalTrain:
    def test_returns_delta_of_right_shape(self, client, global_params):
        update = client.local_train(global_params, CFG)
        assert update.delta.shape == global_params.shape
        assert update.num_samples == client.num_samples
        assert update.flops > 0

    def test_delta_is_nonzero_and_descends(self, client, global_params):
        update = client.local_train(global_params, CFG)
        assert np.linalg.norm(update.delta) > 0
        # Applying the delta should reduce the client's own loss.
        before = client.evaluate(global_params, client.dataset)
        after = client.evaluate(global_params + update.delta, client.dataset)
        assert after >= before

    def test_retains_no_delta(self, client, global_params):
        """Training and probing keep no d-vector on the client: the
        engine retains a delta only for a strategy that reads it."""
        update = client.local_train(global_params, CFG)
        probe = client.probe_delta(global_params, CFG)
        assert client.last_delta is None
        assert client.extract_state()["last_delta"] is None
        shard = client.dataset.x.nbytes + client.dataset.y.nbytes
        assert client.state_nbytes() == shard
        assert update.delta.shape == probe.shape == global_params.shape

    def test_does_not_mutate_global_params(self, client, global_params):
        snapshot = global_params.copy()
        client.local_train(global_params, CFG)
        np.testing.assert_array_equal(global_params, snapshot)

    def test_deterministic_given_seed(self, tiny_train, tiny_model_fn, global_params):
        a = Client(0, tiny_train, tiny_model_fn, seed=5).local_train(global_params, CFG)
        b = Client(0, tiny_train, tiny_model_fn, seed=5).local_train(global_params, CFG)
        np.testing.assert_array_equal(a.delta, b.delta)

    def test_max_batches_caps_work(self, client, global_params):
        capped = LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1, max_batches=1)
        update = client.local_train(global_params, capped)
        full = client.local_train(global_params, CFG)
        assert update.flops < full.flops

    def test_more_epochs_more_flops(self, client, global_params):
        two = LocalTrainingConfig(local_epochs=2, batch_size=16, lr=0.1)
        assert (
            client.local_train(global_params, two).flops
            > client.local_train(global_params, CFG).flops
        )


class TestProx:
    def test_prox_shrinks_delta(self, tiny_train, tiny_model_fn, global_params):
        plain = Client(0, tiny_train, tiny_model_fn, seed=3).local_train(
            global_params, LocalTrainingConfig(local_epochs=3, batch_size=16, lr=0.1)
        )
        proxed = Client(0, tiny_train, tiny_model_fn, seed=3).local_train(
            global_params,
            LocalTrainingConfig(local_epochs=3, batch_size=16, lr=0.1, prox_mu=1.0),
        )
        assert np.linalg.norm(proxed.delta) < np.linalg.norm(plain.delta)


class TestScaffold:
    def test_control_variate_created_and_updated(self, client, global_params):
        control = np.zeros_like(global_params)
        update = client.local_train(global_params, CFG, server_control=control)
        assert client.control_variate is not None
        assert "control_delta" in update.extras
        assert np.linalg.norm(client.control_variate) > 0

    def test_control_delta_consistent(self, client, global_params):
        control = np.zeros_like(global_params)
        before = np.zeros_like(global_params)
        update = client.local_train(global_params, CFG, server_control=control)
        np.testing.assert_allclose(
            before + update.extras["control_delta"], client.control_variate
        )

    def test_zero_correction_matches_plain_sgd(self, tiny_train, tiny_model_fn, global_params):
        """With c == c_i == 0 the first SCAFFOLD round equals plain SGD."""
        plain = Client(0, tiny_train, tiny_model_fn, seed=4).local_train(global_params, CFG)
        scaff = Client(0, tiny_train, tiny_model_fn, seed=4).local_train(
            global_params, CFG, server_control=np.zeros_like(global_params)
        )
        np.testing.assert_allclose(plain.delta, scaff.delta)


class TestTrainingFlops:
    def test_prediction_matches_actual(self, client, global_params):
        predicted = client.training_flops(CFG)
        actual = client.local_train(global_params, CFG).flops
        assert predicted == actual

    def test_evaluate_range(self, client, global_params, tiny_test):
        acc = client.evaluate(global_params, tiny_test)
        assert 0.0 <= acc <= 1.0


class TestHoistedOptimizer:
    """The SGD over the borrowed replica is built once and reused."""

    def test_optimizer_and_buffers_persist_across_rounds(self, client, global_params):
        momentum_cfg = LocalTrainingConfig(
            local_epochs=1, batch_size=16, lr=0.1, momentum=0.9
        )
        client.local_train(global_params, momentum_cfg)
        opt = client.replica._optimizer
        assert opt is not None
        velocity = opt._velocity[0]
        client.local_train(global_params, momentum_cfg, round_index=1)
        # Same optimiser object, same velocity backing buffer: no
        # per-round reallocation.
        assert client.replica._optimizer is opt
        assert opt._velocity[0] is velocity

    def test_optimizer_aliases_model_backing_buffer(self, client, global_params):
        client.local_train(global_params, CFG)
        flat = client.replica.model.get_flat_params()
        assert np.shares_memory(client.replica._optimizer.params[0].data, flat)

    def test_reuse_bit_identical_to_fresh_client(
        self, tiny_train, tiny_model_fn, global_params
    ):
        momentum_cfg = LocalTrainingConfig(
            local_epochs=1, batch_size=16, lr=0.1, momentum=0.9
        )
        reused = Client(0, tiny_train, tiny_model_fn, seed=5)
        reused.local_train(global_params, momentum_cfg)
        second = reused.local_train(global_params, momentum_cfg, round_index=1)
        # A fresh client fast-forwarded through round 0 produces the
        # same round-1 delta: reusing the optimiser leaks no state.
        fresh = Client(0, tiny_train, tiny_model_fn, seed=5)
        fresh.local_train(global_params, momentum_cfg)
        again = fresh.local_train(global_params, momentum_cfg, round_index=1)
        assert np.array_equal(second.delta, again.delta)

    def test_hyperparameter_change_between_rounds(
        self, tiny_train, tiny_model_fn, global_params
    ):
        cfg_a = LocalTrainingConfig(local_epochs=1, batch_size=16, lr=0.1,
                                    momentum=0.9)
        cfg_b = LocalTrainingConfig(local_epochs=1, batch_size=16, lr=0.05,
                                    weight_decay=1e-4)
        reused = Client(0, tiny_train, tiny_model_fn, seed=5)
        reused.local_train(global_params, cfg_a)
        got = reused.local_train(global_params, cfg_b, round_index=1)
        fresh = Client(0, tiny_train, tiny_model_fn, seed=5)
        fresh.local_train(global_params, cfg_a)
        want = fresh.local_train(global_params, cfg_b, round_index=1)
        assert np.array_equal(got.delta, want.delta)

    def test_pickling_drops_optimizer(self, client, global_params):
        import pickle

        client.local_train(global_params, CFG)
        clone = pickle.loads(pickle.dumps(client))
        assert clone.replica._optimizer is None
        # The clone lazily rebuilds it and still trains identically.
        update = clone.local_train(global_params, CFG, round_index=1)
        expected = client.local_train(global_params, CFG, round_index=1)
        assert np.array_equal(update.delta, expected.delta)


class TestScratchStaysOutOfPickles:
    """im2col/col2im workspaces are megabytes of scratch per conv/pool
    layer; a by-value client pickle (live-population snapshots, spill
    blobs) must not carry them."""

    CNN_CFG = LocalTrainingConfig(local_epochs=1, batch_size=20, lr=0.02)

    @staticmethod
    def _cnn_client():
        from repro.data.synthetic import make_image_classification
        from repro.nn.models import build_mnist_cnn

        def model_fn():
            return build_mnist_cnn((1, 14, 14), 10, channels=(8, 16), hidden=64, seed=5)

        train, _ = make_image_classification(
            n_train=47, n_test=10, num_classes=10, image_shape=(1, 14, 14), seed=3
        )
        return Client(0, train, model_fn, seed=1), model_fn().get_flat_params().copy()

    def test_trained_cnn_client_pickles_without_workspaces(self):
        import pickle

        client, params = self._cnn_client()
        fresh = len(pickle.dumps(client))
        client.local_train(params, self.CNN_CFG)
        assert len(pickle.dumps(client)) <= 1.05 * fresh

    def test_unpickled_client_trains_bit_identically(self):
        import pickle

        client, params = self._cnn_client()
        client.local_train(params, self.CNN_CFG)  # 20 + 20 + 7: ragged tail
        clone = pickle.loads(pickle.dumps(client))
        want = client.local_train(params, self.CNN_CFG, round_index=1)
        got = clone.local_train(params, self.CNN_CFG, round_index=1)
        assert np.array_equal(got.delta, want.delta)
        assert got.train_loss == want.train_loss
        assert np.array_equal(
            clone.probe_delta(params, self.CNN_CFG),
            client.probe_delta(params, self.CNN_CFG),
        )
