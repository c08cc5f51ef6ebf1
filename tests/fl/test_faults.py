"""Tests for the Fig. 1 fault models: straggler dropout and upload loss."""

import numpy as np
import pytest

from repro.sim import FaultPlan, StragglerDropoutModel, UploadLossModel, straggler_ids


class TestValidation:
    def test_unknown_mode(self):
        # A failure mode is a model object now; a name is not one.
        with pytest.raises(TypeError):
            FaultPlan("meltdown")

    def test_bad_period(self):
        with pytest.raises(ValueError):
            StragglerDropoutModel(period=1)

    def test_bad_loss_prob(self):
        with pytest.raises(ValueError):
            UploadLossModel(prob=1.5)


class TestNone:
    def test_everything_available(self):
        plan = FaultPlan().bind(seed=0, num_clients=5)
        assert plan.availability == ()
        assert plan.upload_loss is None


class TestDropout:
    def test_straggler_every_other_round(self):
        model = StragglerDropoutModel(period=2, client_ids={0})
        down = [model.is_down(0, 0.0, r) for r in range(6)]
        assert down == [False, True, False, True, False, True]

    def test_non_straggler_always_available(self):
        model = StragglerDropoutModel(client_ids={0})
        assert not any(model.is_down(1, 0.0, r) for r in range(10))

    def test_phases_staggered_by_id(self):
        model = StragglerDropoutModel(period=2, client_ids={0, 1})
        assert model.is_down(0, 0.0, 0) != model.is_down(1, 0.0, 0)

    def test_no_upload_loss_in_dropout_mode(self):
        plan = FaultPlan(StragglerDropoutModel(client_ids={0}))
        assert plan.upload_loss is None
        assert plan.availability == (plan.dropout,)

    def test_no_instant_of_return(self):
        # Round-phased, not timed: the async engine parks such a client
        # until the next model version instead of re-queueing it.
        assert StragglerDropoutModel(client_ids={0}).next_up(0, 3.0) is None

    def test_covers_everyone_by_default(self):
        model = StragglerDropoutModel(period=3)
        assert [model.is_down(c, 0.0, 0) for c in range(4)] == [False, True, True, False]

    def test_trace_cause(self):
        assert StragglerDropoutModel().cause == "fault"


class TestDataloss:
    def test_always_available(self):
        plan = FaultPlan(UploadLossModel(client_ids={0}))
        assert plan.availability == ()

    def test_loss_probability(self):
        model = UploadLossModel(prob=0.5, client_ids={0})
        rng = np.random.default_rng(0)
        lost = sum(model.lost(0, rng) for _ in range(2000))
        assert 0.45 < lost / 2000 < 0.55

    def test_non_straggler_never_loses(self, rng):
        model = UploadLossModel(prob=1.0, client_ids={0})
        assert not model.lost(1, rng)

    def test_draws_from_the_callers_stream_only_when_it_can_fire(self):
        """The documented exception: the caller's generator, one draw per
        covered upload — and none at all from a model that cannot fire."""
        rng = np.random.default_rng(7)
        expect = np.random.default_rng(7).random() < 0.5
        assert UploadLossModel(prob=0.5, client_ids={0}).lost(0, rng) == expect
        state = rng.bit_generator.state
        assert not UploadLossModel(prob=0.5, client_ids={0}).lost(1, rng)
        assert not UploadLossModel(prob=0.5, client_ids=()).lost(0, rng)
        assert not UploadLossModel(prob=0.0).lost(0, rng)
        assert rng.bit_generator.state == state


class TestFromFraction:
    def test_count(self, rng):
        assert len(straggler_ids(10, 0.3, rng)) == 3

    def test_zero_fraction(self, rng):
        assert straggler_ids(10, 0.0, rng) == frozenset()

    def test_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            straggler_ids(10, 1.5, rng)

    def test_deterministic(self):
        a = straggler_ids(10, 0.5, np.random.default_rng(1))
        b = straggler_ids(10, 0.5, np.random.default_rng(1))
        assert a == b

    def test_small_fleet_still_gets_a_straggler(self, rng):
        # 0.1 * 4 rounds to zero; a positive fraction must still bite.
        assert len(straggler_ids(4, 0.1, rng)) == 1

    @pytest.mark.parametrize("num_clients", [1, 2, 3, 5])
    def test_any_positive_fraction_injects(self, num_clients, rng):
        assert len(straggler_ids(num_clients, 0.01, rng)) >= 1

    def test_same_draw_as_the_seed_injector(self):
        """``FaultInjector.from_fraction``'s one draw: Fig. 1's straggler
        sets, and so its curves, are the parent commit's."""
        rng = np.random.default_rng(20)
        expect = np.random.default_rng(20).choice(10, size=2, replace=False)
        assert straggler_ids(10, 0.2, rng) == frozenset(int(i) for i in expect)
