"""Tests for the FL server."""

import numpy as np
import pytest

from repro.fl.server import Server


@pytest.fixture
def server(tiny_model_fn, tiny_test):
    return Server(tiny_model_fn, tiny_test)


class TestServer:
    def test_initial_state(self, server):
        assert server.version == 0
        assert server.global_delta is None
        assert server.dim == server.params.size

    def test_apply_delta(self, server):
        delta = np.ones(server.dim) * 0.01
        before = server.params.copy()
        server.apply_delta(delta)
        np.testing.assert_allclose(server.params, before + delta)
        assert server.version == 1
        np.testing.assert_array_equal(server.global_delta, delta)

    def test_apply_delta_shape_check(self, server):
        with pytest.raises(ValueError):
            server.apply_delta(np.zeros(3))

    def test_set_params_records_delta(self, server):
        target = server.params + 0.5
        server.set_params(target)
        np.testing.assert_allclose(server.global_delta, np.full(server.dim, 0.5))
        assert server.version == 1

    def test_set_params_without_delta(self, server):
        server.records_global_delta = False
        server.set_params(server.params + 1.0)
        server.apply_delta(np.ones(server.dim))
        assert server.global_delta is None and server.version == 2

    def test_set_params_copies(self, server):
        target = server.params + 1.0
        server.set_params(target)
        target[0] = 99.0
        assert server.params[0] != 99.0

    def test_apply_delta_is_in_place(self, server):
        buf = server.params
        server.apply_delta(np.full(server.dim, 0.25))
        assert server.params is buf  # buffer identity survives updates
        server.apply_delta(np.full(server.dim, -0.25))
        assert server.params is buf

    def test_apply_delta_callers_must_copy_for_rollback(self, server):
        view = server.params  # a stale alias, not a frozen snapshot
        frozen = server.params.copy()
        delta = np.full(server.dim, 0.125)
        server.apply_delta(delta)
        np.testing.assert_array_equal(view, frozen + delta)

    def test_set_params_adopts_without_copy(self, server):
        target = server.params + 2.0
        server.set_params(target, copy=False)
        assert server.params is target

    def test_evaluate_returns_accuracy_and_loss(self, server):
        acc, loss = server.evaluate()
        assert 0.0 <= acc <= 1.0
        assert loss > 0.0

    def test_evaluate_batched_matches_whole(self, tiny_model_fn, tiny_test):
        whole = Server(tiny_model_fn, tiny_test, eval_batch=1000)
        batched = Server(tiny_model_fn, tiny_test, eval_batch=7)
        acc_w, loss_w = whole.evaluate()
        acc_b, loss_b = batched.evaluate()
        assert acc_w == acc_b
        assert abs(loss_w - loss_b) < 1e-9

    def test_training_improves_evaluation(self, server, tiny_train, tiny_model_fn):
        from repro.fl.client import Client
        from repro.fl.config import LocalTrainingConfig

        acc_before, _ = server.evaluate()
        client = Client(0, tiny_train, tiny_model_fn, seed=0)
        cfg = LocalTrainingConfig(local_epochs=5, batch_size=16, lr=0.1)
        update = client.local_train(server.params, cfg)
        server.apply_delta(update.delta)
        acc_after, _ = server.evaluate()
        assert acc_after > acc_before
