"""Tests for the composable fault models and the plan that groups them.

(The Fig. 1 models are tested in ``tests/fl/test_faults.py``, churn in
``tests/network/test_churn.py``.)
"""

import numpy as np
import pytest

from repro.sim import (
    AvailabilityModel,
    ChurnModel,
    ClientCrashModel,
    FaultPlan,
    PayloadCorruptionModel,
    ServerOutageModel,
    StaleUploadModel,
    StragglerDropoutModel,
    UploadLossModel,
)
from repro.sim.faults import _fault_stream, _ToggleSchedule
from repro.fl.validation import verify_frame
from repro.wire import FRAME_OVERHEAD, encode_frame


class TestToggleSchedule:
    def _sched(self, seed=0, up=5.0, down=2.0, starts_up=True):
        return _ToggleSchedule(np.random.default_rng(seed), up, down, starts_up)

    def test_starts_up_at_zero(self):
        assert self._sched().is_up(0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            self._sched().is_up(-1.0)

    def test_query_order_independent(self):
        a = self._sched(seed=3)
        late_first = [a.is_up(t) for t in (900.0, 5.0, 300.0)]
        b = self._sched(seed=3)
        early_first = [b.is_up(t) for t in (5.0, 300.0, 900.0)]
        assert late_first == [early_first[2], early_first[0], early_first[1]]

    def test_state_actually_toggles(self):
        sched = self._sched(seed=1, up=5.0, down=5.0)
        states = {sched.is_up(t) for t in np.linspace(0, 500, 400)}
        assert states == {True, False}

    def test_next_up_identity_when_up(self):
        sched = self._sched()
        assert sched.next_up(0.0) == 0.0

    def test_next_up_is_up(self):
        sched = self._sched(seed=2, up=3.0, down=3.0)
        for t in (0.0, 10.0, 77.7, 450.0):
            resume = sched.next_up(t)
            assert resume >= t
            assert sched.is_up(resume)

    def test_flips_exactly_at_toggle(self):
        sched = self._sched(seed=4)
        sched.is_up(1000.0)
        first = sched._toggles[0]
        assert sched.is_up(np.nextafter(first, 0.0))
        assert not sched.is_up(first)

    def test_starts_down_when_told_to(self):
        sched = self._sched(seed=6, starts_up=False)
        assert not sched.is_up(0.0)
        first = sched._toggles[0]
        # Down on [0, first), up from first: next_up is that toggle.
        assert sched.next_up(0.0) == first
        assert sched.is_up(first)
        assert sched.next_down_in(0.0, first) == 0.0

    def test_first_period_uses_the_mean_of_the_starting_state(self):
        """Draw order: a schedule that starts down draws its first
        period with the *down* mean (churn's off-period)."""
        up_first = self._sched(seed=8, up=1.0, down=1000.0)
        down_first = self._sched(seed=8, up=1.0, down=1000.0, starts_up=False)
        up_first.is_up(0.0), down_first.is_up(0.0)
        assert down_first._toggles[0] == pytest.approx(1000.0 * up_first._toggles[0])

    def test_next_down_in_semantics(self):
        sched = self._sched(seed=5, up=10.0, down=10.0)
        sched.is_up(1000.0)
        first = sched._toggles[0]
        # Window strictly before the first crash: no down transition.
        assert sched.next_down_in(0.0, first * 0.5) is None
        # Window containing it: the exact toggle time.
        assert sched.next_down_in(0.0, first + 1.0) == first
        # Already down: the window start itself.
        assert sched.next_down_in(first, first + 0.1) == first


class TestClientCrashModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ClientCrashModel(mtbf_s=0.0, mean_downtime_s=1.0)
        with pytest.raises(ValueError):
            ClientCrashModel(mtbf_s=1.0, mean_downtime_s=-1.0)

    def test_unbound_model_refuses_queries(self):
        model = ClientCrashModel(mtbf_s=1.0, mean_downtime_s=1.0)
        with pytest.raises(RuntimeError):
            model.is_down(0, 0.0)

    def test_bind_is_idempotent(self):
        model = ClientCrashModel(mtbf_s=1.0, mean_downtime_s=1.0)
        model.bind(seed=0, num_clients=2)
        crash = model.crash_in(0, 0.0, 50.0)
        model.bind(seed=999, num_clients=2)  # must not re-derive streams
        assert model.crash_in(0, 0.0, 50.0) == crash

    def test_crash_in_window_then_restart(self):
        model = ClientCrashModel(mtbf_s=2.0, mean_downtime_s=1.0)
        model.bind(seed=1, num_clients=1)
        crash = model.crash_in(0, 0.0, 100.0)
        assert crash is not None and 0.0 <= crash < 100.0
        assert model.is_down(0, crash)
        restart = model.next_up(0, crash)
        assert restart > crash
        assert not model.is_down(0, restart)

    def test_client_ids_scope_the_blast_radius(self):
        model = ClientCrashModel(mtbf_s=0.1, mean_downtime_s=10.0, client_ids={0})
        model.bind(seed=0, num_clients=3)
        assert model.crash_in(1, 0.0, 1000.0) is None
        assert not model.is_down(2, 500.0)
        assert model.next_up(1, 42.0) == 42.0

    def test_deterministic_given_seed(self):
        def trace(seed):
            m = ClientCrashModel(mtbf_s=3.0, mean_downtime_s=1.0)
            m.bind(seed=seed, num_clients=2)
            return [m.is_down(c, t) for c in range(2) for t in (1.0, 7.5, 20.0)]

        assert trace(5) == trace(5)


class TestPayloadCorruptionModel:
    def _bound(self, **kwargs):
        model = PayloadCorruptionModel(**kwargs)
        model.bind(seed=0, num_clients=2)
        return model

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PayloadCorruptionModel(prob=1.5)
        with pytest.raises(ValueError):
            PayloadCorruptionModel(prob=0.5, kind="gremlins")
        with pytest.raises(ValueError):
            PayloadCorruptionModel(prob=0.5, magnitude=0.0)

    @staticmethod
    def _frame(delta) -> bytes:
        return encode_frame("dense64", delta.size, {"values": delta}).to_bytes()

    def test_zero_prob_never_corrupts(self):
        model = self._bound(prob=0.0)
        delta = np.ones(100)
        frame = self._frame(delta)
        for _ in range(50):
            out, tampered = model.corrupt_upload(0, delta, frame)
            assert out is delta and tampered is None

    def test_nan_poisoning_leaves_original_untouched(self):
        model = self._bound(prob=1.0, kind="nan")
        delta = np.ones(4000)
        out, tampered = model.corrupt_upload(0, delta, self._frame(delta))
        assert tampered is None  # damaged before encoding: the frame is sound
        assert np.isnan(out).sum() >= 1
        assert np.all(delta == 1.0)  # the vector handed back is a copy

    def test_bitflip_changes_exactly_one_coordinate(self):
        model = self._bound(prob=1.0, kind="bitflip")
        delta = np.full(256, 0.5)
        frame = self._frame(delta)
        out, tampered = model.corrupt_upload(0, delta, frame)
        assert out is delta  # the flip is in the frame, not the vector
        assert len(tampered) == len(frame)
        assert tampered[:FRAME_OVERHEAD] == frame[:FRAME_OVERHEAD]
        diff = np.frombuffer(tampered, np.uint8) ^ np.frombuffer(frame, np.uint8)
        assert int(np.unpackbits(diff).sum()) == 1
        # One payload bit of a dense64 frame is one coordinate ...
        payload = np.frombuffer(tampered[FRAME_OVERHEAD:], np.uint64)
        assert int((payload != delta.view(np.uint64)).sum()) == 1
        # ... which the server never sees: the CRC refuses the frame.
        assert verify_frame(frame) is None
        assert verify_frame(tampered) == "corrupt_frame"

    def test_bitflip_passes_a_header_only_frame_through(self):
        model = self._bound(prob=1.0, kind="bitflip")
        delta = np.zeros(0)
        frame = self._frame(delta)
        assert len(frame) == FRAME_OVERHEAD
        assert model.corrupt_upload(0, delta, frame) == (delta, None)

    def test_blowup_scales_by_magnitude(self):
        model = self._bound(prob=1.0, kind="blowup", magnitude=1e3)
        delta = np.full(10, 2.0)
        out, tampered = model.corrupt_upload(0, delta, self._frame(delta))
        assert tampered is None
        np.testing.assert_array_equal(out, np.full(10, 2000.0))

    def test_unknown_client_is_clean(self):
        model = self._bound(prob=1.0, client_ids={0})
        delta = np.ones(5)
        out, tampered = model.corrupt_upload(1, delta, self._frame(delta))
        assert out is delta and tampered is None


class TestStaleUploadModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StaleUploadModel(delay_prob=-0.1)
        with pytest.raises(ValueError):
            StaleUploadModel(duplicate_prob=2.0)
        with pytest.raises(ValueError):
            StaleUploadModel(mean_delay_s=0.0)

    def test_inert_defaults(self):
        model = StaleUploadModel()
        model.bind(seed=0, num_clients=1)
        assert model.upload_effects(0) == (0.0, False)

    def test_certain_delay_and_duplicate(self):
        model = StaleUploadModel(delay_prob=1.0, mean_delay_s=2.0, duplicate_prob=1.0)
        model.bind(seed=0, num_clients=1)
        delay, dup = model.upload_effects(0)
        assert delay > 0.0
        assert dup is True

    def test_deterministic_given_seed(self):
        def draws(seed):
            m = StaleUploadModel(delay_prob=0.5, mean_delay_s=1.0, duplicate_prob=0.5)
            m.bind(seed=seed, num_clients=1)
            return [m.upload_effects(0) for _ in range(20)]

        assert draws(3) == draws(3)


class TestServerOutageModel:
    def test_windows_validation(self):
        with pytest.raises(ValueError):
            ServerOutageModel(windows=[(5.0, 2.0)])
        with pytest.raises(ValueError):
            ServerOutageModel(windows=[(-1.0, 2.0)])
        with pytest.raises(ValueError):
            ServerOutageModel(windows=[(0.0, 1.0)], mtbf_s=10.0)
        with pytest.raises(ValueError):
            ServerOutageModel()  # neither windows nor means
        with pytest.raises(ValueError):
            ServerOutageModel(mtbf_s=-1.0, mean_outage_s=1.0)

    def test_explicit_windows_are_half_open(self):
        model = ServerOutageModel(windows=[(1.0, 2.0), (5.0, 6.0)])
        model.bind(seed=0, num_clients=4)
        assert not model.is_down(0.5)
        assert model.is_down(1.0)  # inclusive start
        assert model.is_down(1.5)
        assert not model.is_down(2.0)  # exclusive stop
        assert model.is_down(5.5)

    def test_next_up_exits_the_window(self):
        model = ServerOutageModel(windows=[(1.0, 2.0)])
        model.bind(seed=0, num_clients=4)
        assert model.next_up(1.5) == 2.0
        assert model.next_up(3.0) == 3.0

    def test_stochastic_schedule_toggles(self):
        model = ServerOutageModel(mtbf_s=5.0, mean_outage_s=5.0)
        model.bind(seed=2, num_clients=4)
        states = {model.is_down(t) for t in np.linspace(0, 500, 400)}
        assert states == {True, False}
        resume = model.next_up(123.0)
        assert resume >= 123.0
        assert not model.is_down(resume)


class TestFaultPlan:
    def test_typed_accessors(self):
        crash = ClientCrashModel(mtbf_s=1.0, mean_downtime_s=1.0)
        outage = ServerOutageModel(windows=[(0.0, 1.0)])
        plan = FaultPlan(crash, outage)
        assert plan.crash is crash
        assert plan.outage is outage
        assert plan.corruption is None
        assert plan.stale is None
        assert plan.churn is plan.dropout is plan.upload_loss is None

    def test_typed_accessors_for_the_adopted_models(self):
        churn, dropout, loss = ChurnModel(), StragglerDropoutModel(), UploadLossModel()
        plan = FaultPlan(loss, dropout, churn)
        assert (plan.churn, plan.dropout, plan.upload_loss) == (churn, dropout, loss)

    def test_availability_gate_order_ignores_spelling(self):
        churn, dropout = ChurnModel(), StragglerDropoutModel()
        crash = ClientCrashModel(mtbf_s=1.0, mean_downtime_s=1.0)
        for spelled in ((dropout, crash, churn), (churn, crash, dropout)):
            assert FaultPlan(*spelled).availability == (churn, crash, dropout)
        assert FaultPlan(UploadLossModel(), StaleUploadModel()).availability == ()

    def test_any_availability_model_plugs_in(self):
        class Fake(AvailabilityModel):
            cause = "fake"

        fake, churn = Fake(), ChurnModel()
        plan = FaultPlan(fake, churn).bind(seed=0, num_clients=2)
        assert plan.availability == (churn, fake)
        assert fake.bound

    def test_rejects_duplicate_kinds(self):
        with pytest.raises(ValueError):
            FaultPlan(
                PayloadCorruptionModel(prob=0.1),
                PayloadCorruptionModel(prob=0.2),
            )

    def test_rejects_unknown_models(self):
        with pytest.raises(TypeError):
            FaultPlan(object())

    def test_bind_binds_every_model_once(self):
        crash = ClientCrashModel(mtbf_s=1.0, mean_downtime_s=1.0)
        plan = FaultPlan(crash)
        assert plan.bind(seed=0, num_clients=2) is plan
        assert plan.bound and crash.bound
        first = crash.crash_in(0, 0.0, 50.0)
        plan.bind(seed=777, num_clients=2)  # resume path: must be a no-op
        assert crash.crash_in(0, 0.0, 50.0) == first


class TestStreamDerivation:
    def test_streams_are_independent_per_model_and_client(self):
        draws = {
            (name, cid): _fault_stream(0, name, cid).random()
            for name in ("crash", "corrupt", "stale")
            for cid in (0, 1)
        }
        assert len(set(draws.values())) == len(draws)
