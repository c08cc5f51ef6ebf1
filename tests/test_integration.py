"""End-to-end integration tests of the paper's headline claims.

Each test runs a real (tiny) federation and asserts a *qualitative*
claim from the paper — the quantitative versions live in
``benchmarks/``.  Scales are chosen so the whole module runs in a few
seconds yet the claims reproduce deterministically.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.adafl import AdaFLAsync, AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.experiments.presets import FAST
from repro.experiments.runner import FederationSpec, run_async, run_sync
from repro.fl.baselines import FedAsync, FedAvg
from repro.sim import FaultPlan, StragglerDropoutModel, straggler_ids

SCALE = replace(
    FAST,
    num_rounds=16,
    train_samples=400,
    test_samples=100,
    image_size=12,
    cnn_channels=(3, 6),
    cnn_hidden=24,
    eval_every=2,
)


def adafl_config(warmup=2, tau=0.45, k_max=5):
    return AdaFLConfig(
        k_max=k_max,
        tau=tau,
        policy=AdaptiveCompressionPolicy(
            min_ratio=4.0, max_ratio=50.0, warmup_rounds=warmup, warmup_ratio=4.0
        ),
    )


def _dropout_plan(fraction, rng):
    stragglers = straggler_ids(SCALE.num_clients, fraction, rng)
    return FaultPlan(StragglerDropoutModel(client_ids=stragglers))


def spec(distribution="iid", seed=0, model="mlp"):
    return FederationSpec(
        dataset="mnist",
        model=model,
        distribution=distribution,
        scale=SCALE,
        seed=seed,
        lr=0.1,
    )


class TestInsight1DropoutTolerance:
    """§III insight 1: <=20% dropout barely hurts accuracy."""

    def test_moderate_dropout_within_tolerance(self):
        base = run_sync(spec(), FedAvg(participation_rate=1.0))
        rng = np.random.default_rng(0)
        chaos = _dropout_plan(0.2, rng)
        dropped = run_sync(spec(), FedAvg(participation_rate=1.0), chaos=chaos)
        assert dropped.final_accuracy >= base.final_accuracy - 0.10

    def test_heavy_dropout_costs_updates(self):
        rng = np.random.default_rng(0)
        chaos = _dropout_plan(0.5, rng)
        dropped = run_sync(spec(), FedAvg(participation_rate=1.0), chaos=chaos)
        base = run_sync(spec(), FedAvg(participation_rate=1.0))
        assert dropped.total_uploads < base.total_uploads


class TestInsight2Staleness:
    """§III insight 2: staleness slows convergence in wall-clock terms."""

    def test_slow_clients_delay_convergence(self):
        fast = run_async(spec(), FedAsync(), max_updates=60)
        slow_rates = np.full(SCALE.num_clients, 2e9)
        slow_rates[: SCALE.num_clients // 2] /= 3.0
        stale = run_async(spec(), FedAsync(), device_flops=slow_rates, max_updates=60)
        # Same number of updates takes longer when half the fleet is 3x slower.
        assert stale.total_sim_time > fast.total_sim_time


class TestAdaFLClaims:
    """§V: AdaFL preserves accuracy while cutting communication."""

    def test_accuracy_parity_with_fedavg(self):
        fedavg = run_sync(spec(seed=1), FedAvg(participation_rate=0.5))
        adafl = run_sync(spec(seed=1), AdaFLSync(adafl_config()))
        assert adafl.final_accuracy >= fedavg.final_accuracy - 0.08

    def test_byte_reduction_over_fedavg(self):
        fedavg = run_sync(spec(seed=1), FedAvg(participation_rate=0.5))
        adafl = run_sync(spec(seed=1), AdaFLSync(adafl_config()))
        assert adafl.total_bytes_up < 0.6 * fedavg.total_bytes_up

    def test_update_frequency_reduced_after_warmup(self):
        adafl = run_sync(spec(seed=1), AdaFLSync(adafl_config(warmup=2, k_max=3)))
        # 2 warm-up rounds x 10 + 14 rounds x <=3.
        assert adafl.total_uploads <= 2 * 10 + 14 * 3

    def test_compression_ratio_range_spans(self):
        adafl = run_sync(spec(seed=1), AdaFLSync(adafl_config()))
        rmax, rmin = adafl.compression_ratio_range()
        assert rmax > rmin >= 1.0

    def test_adafl_async_runs_and_learns(self):
        result = run_async(
            spec(seed=2),
            AdaFLAsync(adafl_config(warmup=3, tau=0.4)),
            max_updates=50,
        )
        assert result.final_accuracy > 0.4


class TestNonIid:
    """The non-IID regime the paper emphasises."""

    def test_fedavg_learns_on_shards(self):
        result = run_sync(spec(distribution="shard", seed=3), FedAvg(participation_rate=0.5))
        _, accs = result.accuracy_curve()
        assert accs[-1] > 0.35

    def test_adafl_learns_on_shards(self):
        result = run_sync(
            spec(distribution="shard", seed=3), AdaFLSync(adafl_config(tau=0.3))
        )
        _, accs = result.accuracy_curve()
        assert accs[-1] > 0.35


class TestDeterminism:
    def test_full_stack_reproducible(self):
        a = run_sync(spec(seed=4), AdaFLSync(adafl_config()))
        b = run_sync(spec(seed=4), AdaFLSync(adafl_config()))
        assert a.final_accuracy == b.final_accuracy
        assert a.total_bytes_up == b.total_bytes_up
        assert [r.participants for r in a.records] == [r.participants for r in b.records]
