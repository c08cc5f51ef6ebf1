"""The server step, said once: ``ServerOpt`` and the identities it makes
one-liners (in the style of FLSim's
``verify_models_equivalent_after_training``): two strategies that are
the same algorithm at some setting of their knobs train to the same
global model, bit for bit."""

import numpy as np
import pytest

from repro.core.zoo import AdaptiveFederatedDropout, AFDConfig
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAdam, FedAsync, FedAvg, FedAvgM, FedBuff
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.server import Server, ServerOpt
from repro.fl.strategy import SyncStrategy
from repro.fl.sync_engine import SyncEngine

LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.05)


@pytest.fixture
def train(tiny_train, tiny_test, tiny_model_fn):
    """``train(strategy, num_clients=4)``: a fresh federation's whole run."""

    def run(strategy, num_clients=4):
        parts = np.array_split(np.arange(len(tiny_train)), num_clients)
        clients = [
            Client(i, tiny_train.subset(parts[i]), tiny_model_fn, seed=70 + i)
            for i in range(num_clients)
        ]
        server = Server(tiny_model_fn, tiny_test)
        cfg = FederationConfig(
            num_rounds=5, participation_rate=1.0, eval_every=1, seed=0, local=LOCAL,
            max_sim_time_s=1e9, max_updates=12,
        )
        sync = isinstance(strategy, SyncStrategy)
        result = (SyncEngine if sync else AsyncEngine)(server, clients, strategy, cfg).run()
        return server.params, result.accuracy_curve()

    return run


def assert_models_equivalent_after_training(a, b):
    (params_a, curve_a), (params_b, curve_b) = a, b
    assert np.array_equal(params_a, params_b)
    assert np.array_equal(curve_a, curve_b)
    assert np.any(params_a != 0.0) and len(curve_a[0]) > 1  # it did train


class TestIdentities:
    def test_fedavgm_without_momentum_is_fedavg(self, train):
        assert_models_equivalent_after_training(
            train(FedAvgM(1.0, beta=0.0, server_lr=1.0)), train(FedAvg(1.0))
        )

    def test_federated_dropout_keeping_everything_is_fedavg(self, train):
        afd = AdaptiveFederatedDropout(AFDConfig(1.0, min_keep=1.0, max_keep=1.0))
        assert_models_equivalent_after_training(train(afd), train(FedAvg(1.0)))

    def test_fedbuff_of_one_is_undiscounted_fedasync(self, train):
        # One client: every update is trained from the current model,
        # so staleness is always 0 and mixing with alpha = 1 is adoption.
        assert_models_equivalent_after_training(
            train(FedBuff(buffer_size=1, poly_a=0.0), num_clients=1),
            train(FedAsync(alpha=1.0, poly_a=0.0), num_clients=1),
        )

    def test_fedadam_is_the_adam_server_opt_driven_directly(self, train):
        direct = SyncStrategy(1.0, ServerOpt(lr=0.05, adam=(0.9, 0.99, 1e-3)))
        assert_models_equivalent_after_training(
            train(FedAdam(1.0, server_lr=0.05, beta1=0.9, beta2=0.99, eps=1e-3)),
            train(direct),
        )


class TestServerOpt:
    @pytest.fixture
    def server(self, tiny_model_fn, tiny_test):
        return Server(tiny_model_fn, tiny_test)

    def test_plain_step_adopts_the_direction_itself(self, server):
        before, direction = server.params.copy(), np.full(server.dim, 0.25)
        ServerOpt().step(server, direction)
        assert np.array_equal(server.params, before + direction)
        assert server.global_delta is direction and server.version == 1

    def test_momentum_then_lr_in_the_order_fedavgm_wrote_them(self, server, rng):
        opt, velocity = ServerOpt(lr=0.7, momentum=0.9), np.zeros(server.dim)
        opt.reset(server.dim)
        expected = server.params.copy()
        for _ in range(3):
            direction = rng.normal(size=server.dim)
            velocity = 0.9 * velocity + direction
            expected += 0.7 * velocity
            opt.step(server, direction)
        assert np.array_equal(server.params, expected)

    def test_weights_fold_into_lr_before_the_one_array_multiply(self, server, rng):
        direction, before = rng.normal(size=server.dim), server.params.copy()
        ServerOpt(lr=0.3).step(server, direction, 0.7, 3)
        assert np.array_equal(server.params, before + 0.3 * 0.7 * 3 * direction)

    def test_stateful_rules_need_reset(self, server):
        for opt in (ServerOpt(momentum=0.5), ServerOpt(adam=(0.9, 0.99, 1e-3))):
            with pytest.raises(RuntimeError, match="reset"):
                opt.step(server, np.ones(server.dim))

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerOpt(lr=0.0)
        with pytest.raises(ValueError):
            ServerOpt(momentum=1.0)
