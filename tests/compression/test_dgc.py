"""Tests for Deep Gradient Compression."""

import gc
import os
import pickle
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.dgc import DGCCompressor, DGCStateStore
from repro.compression.topk import topk_indices
from repro.wire.frame import FrameCorruptionError


class TestBasics:
    def test_payload_size(self, rng):
        comp = DGCCompressor(100, ratio=10.0, clip_norm=None)
        payload = comp.compress(rng.normal(size=100))
        assert payload.data["indices"].size == 10
        # Best encoding: bitmap (4*10 + ceil(100/8)) beats COO (8*10).
        assert payload.num_bytes == 53

    def test_per_call_ratio_override(self, rng):
        comp = DGCCompressor(100, ratio=10.0, clip_norm=None)
        payload = comp.compress(rng.normal(size=100), ratio=50.0)
        assert payload.data["indices"].size == 2

    def test_bad_ratio(self, rng):
        comp = DGCCompressor(10)
        with pytest.raises(ValueError):
            comp.compress(rng.normal(size=10), ratio=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DGCCompressor(10, ratio=0.9)
        with pytest.raises(ValueError):
            DGCCompressor(10, momentum=1.0)
        with pytest.raises(ValueError):
            DGCCompressor(10, clip_norm=0.0)

    def test_payload_mutation_cannot_corrupt_compressor_state(self, rng):
        # The payload is handed to network/fault simulation code that
        # may rewrite it; values must be an independent array, never a
        # window into the residual buffer.
        comp = DGCCompressor(100, ratio=10.0, clip_norm=None)
        comp.compress(rng.normal(size=100))  # build up a residual
        payload = comp.compress(rng.normal(size=100))
        assert not np.shares_memory(payload.data["values"], comp._residual)
        assert not np.shares_memory(payload.data["values"], comp._velocity)
        residual_before = comp._residual.copy()
        velocity_before = comp._velocity.copy()
        payload.data["values"][...] = 1e9
        np.testing.assert_array_equal(comp._residual, residual_before)
        np.testing.assert_array_equal(comp._velocity, velocity_before)


class TestErrorFeedback:
    def test_residual_conservation_without_momentum(self, rng):
        """Invariant: sum(transmitted) + residual == sum(inputs) when
        momentum correction is off and clipping never triggers."""
        dim = 60
        comp = DGCCompressor(
            dim, ratio=6.0, clip_norm=None, use_momentum_correction=False
        )
        total_in = np.zeros(dim)
        total_out = np.zeros(dim)
        for _ in range(10):
            grad = rng.normal(size=dim)
            total_in += grad
            total_out += comp.decompress(comp.compress(grad)).to_dense()
        # Values travel as float32, so conservation holds to ~1e-6.
        np.testing.assert_allclose(total_out + comp._residual, total_in, atol=1e-5)

    def test_residual_eventually_transmits(self, rng):
        """A persistently small coordinate must eventually be sent."""
        dim = 20
        comp = DGCCompressor(
            dim, ratio=20.0, clip_norm=None, use_momentum_correction=False
        )
        grad = np.zeros(dim)
        grad[0] = 10.0  # dominant coordinate
        grad[5] = 0.1  # small but persistent
        sent_small = False
        for _ in range(300):
            restored = comp.decompress(comp.compress(grad)).to_dense()
            if restored[5] != 0.0:
                sent_small = True
                break
        assert sent_small

    def test_residual_norm_diagnostic(self, rng):
        comp = DGCCompressor(50, ratio=25.0, clip_norm=None)
        assert comp.residual_norm == 0.0
        comp.compress(rng.normal(size=50))
        assert comp.residual_norm > 0.0

    def test_reset_clears_state(self, rng):
        comp = DGCCompressor(30, ratio=10.0)
        comp.compress(rng.normal(size=30))
        comp.reset()
        assert comp.residual_norm == 0.0
        assert np.all(comp._velocity == 0.0)


class TestMomentumCorrection:
    def test_momentum_amplifies_unsent_coordinates(self):
        """While a coordinate stays unsent, momentum makes its residual
        grow faster than plain accumulation would."""
        dim = 10
        grad = np.zeros(dim)
        grad[0] = 10.0  # dominates every top-1 selection
        grad[5] = 0.1  # never selected in the first few rounds
        with_momentum = DGCCompressor(
            dim, ratio=10.0, momentum=0.9, clip_norm=None
        )
        without = DGCCompressor(
            dim, ratio=10.0, clip_norm=None, use_momentum_correction=False
        )
        for _ in range(5):
            with_momentum.compress(grad)
            without.compress(grad)
        assert with_momentum._residual[5] > without._residual[5] * 1.5

    def test_transmitted_coordinates_cleared_from_velocity(self, rng):
        comp = DGCCompressor(10, ratio=1.0, momentum=0.9, clip_norm=None)
        comp.compress(rng.normal(size=10))
        # ratio 1 sends everything, so both buffers must be empty.
        assert np.all(comp._velocity == 0.0)
        assert np.all(comp._residual == 0.0)


class TestInPlaceRecurrence:
    @pytest.mark.parametrize("clip_norm", (None, 0.5))
    def test_bit_equal_to_the_rebinding_form(self, clip_norm):
        """``v = m * v + g; r += v`` in float32 on the gradient rounded
        once after the clip's scaled copy, as whole-array expressions."""
        dim, m = 501, 0.9
        comp = DGCCompressor(dim, ratio=10.0, momentum=m, clip_norm=clip_norm)
        velocity = np.zeros(dim, dtype=np.float32)
        residual = np.zeros(dim, dtype=np.float32)
        rng = np.random.default_rng(8)
        for _ in range(5):
            grad = rng.standard_normal(dim)
            kept = grad.copy()
            payload = comp.compress(grad)
            assert np.array_equal(grad, kept)  # the caller's array is not scaled in place
            norm = float(np.linalg.norm(grad))
            if clip_norm is not None and norm > clip_norm:
                grad = grad * (clip_norm / norm)
            velocity = m * velocity + grad.astype(np.float32)
            residual += velocity
            idx = payload.data["indices"].astype(np.int64)
            assert payload.data["values"].tobytes() == residual[idx].tobytes()
            residual[idx] = 0.0
            velocity[idx] = 0.0
            assert comp._velocity.tobytes() == velocity.tobytes()
            assert comp._residual.tobytes() == residual.tobytes()


class _ReferenceDGC:
    """DGC as float32 whole-array expressions around an argpartition
    top-k — a private compressor with no scratch to share."""

    def __init__(self, dim, momentum, clip_norm, num_workers):
        self.dim, self.momentum = dim, momentum
        self.threshold = clip_norm / np.sqrt(num_workers)
        self.velocity = np.zeros(dim, dtype=np.float32)
        self.residual = np.zeros(dim, dtype=np.float32)

    def compress(self, grad, ratio):
        norm = float(np.linalg.norm(grad))
        if norm > self.threshold:
            grad = grad * (self.threshold / norm)
        self.velocity = self.momentum * self.velocity + grad.astype(np.float32)
        self.residual += self.velocity
        k = max(1, int(round(self.dim / ratio)))
        if k >= self.dim:
            idx = np.arange(self.dim)
        else:
            idx = np.sort(np.argpartition(-np.abs(self.residual), k - 1)[:k])
        values = self.residual[idx]
        self.residual[idx] = 0.0
        self.velocity[idx] = 0.0
        return idx, values

    def restore(self, idx, values):
        self.residual[idx] += values


class TestSharedScratch:
    """Compressors borrowing one magnitude scratch, called interleaved,
    match private reference compressors bit for bit."""

    @pytest.mark.parametrize("dim", (257, 40_000))
    def test_interleaved_cohort_matches_private_references(self, dim):
        n, rng = 4, np.random.default_rng(11)
        scratch = DGCStateStore(dim)
        kw = dict(momentum=0.9, clip_norm=5.0, num_workers=n)
        comps = [DGCCompressor(dim, scratch=scratch, **kw) for _ in range(n)]
        refs = [_ReferenceDGC(dim, **kw) for _ in range(n)]
        for step in range(12):
            for i in rng.permutation(n):
                # Coarse values: many ties at the k-th magnitude.
                grad = np.round(rng.normal(size=dim), 1 if step % 2 else 6)
                ratio = float(rng.choice([1.0, 4.0, 37.5, 210.0]))
                payload = comps[i].compress(grad, ratio=ratio)
                idx, values = refs[i].compress(grad, ratio)
                assert np.array_equal(payload.data["indices"], idx.astype(np.uint32))
                assert payload.data["values"].tobytes() == values.tobytes()
                dense = np.zeros(dim)
                dense[idx] = values
                assert comps[i].decompress(payload).to_dense().tobytes() == dense.tobytes()
                if rng.random() < 0.3:  # a NACK
                    comps[i].restore(payload)
                    refs[i].restore(idx, values)
                if rng.random() < 0.2:  # evicted and re-materialised
                    fresh = DGCCompressor(dim, scratch=scratch, **kw)
                    fresh.import_state(comps[i].export_state())
                    comps[i] = fresh
                state = comps[i].export_state()
                assert state["velocity"].tobytes() == refs[i].velocity.tobytes()
                assert state["residual"].tobytes() == refs[i].residual.tobytes()

    def test_scratch_pickles_empty_and_stays_shared(self):
        import pickle

        scratch = DGCStateStore(5000)
        comps = [DGCCompressor(5000, scratch=scratch) for _ in range(3)]
        for c in comps:
            c.compress(np.random.default_rng(0).normal(size=5000))
        assert len(pickle.dumps(scratch)) < 200
        clones = pickle.loads(pickle.dumps(comps))
        assert len({id(c._scratch) for c in clones}) == 1
        assert clones[0]._scratch._buffer is None

    def test_scratch_dim_must_match(self):
        with pytest.raises(ValueError):
            DGCCompressor(10, scratch=DGCStateStore(11))


_OPS = ("compress", "restore", "evict", "reset", "pickle")


class TestCappedStore:
    """M compressors sharing a store capped at ``cap`` pairs — parking
    the least recently used state to the store's file — walk the same
    payloads and states as M private compressors, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        cap_frac=st.floats(0.0, 1.0),
        dim=st.sampled_from([1, 7, 257]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.integers(0, 4),
                st.sampled_from([1.0, 4.0, 37.5]),
            ),
            max_size=40,
        ),
    )
    def test_interleavings_match_private_compressors(self, seed, m, cap_frac, dim, ops):
        cap = 1 + int(cap_frac * (m - 1))
        rng = np.random.default_rng(seed)
        kw = dict(momentum=0.9, clip_norm=5.0, num_workers=m)
        store = DGCStateStore(dim, cap=cap)
        shared = [DGCCompressor(dim, scratch=store, **kw) for _ in range(m)]
        private = [DGCCompressor(dim, **kw) for _ in range(m)]
        last: dict[int, tuple] = {}

        def same_state(a, b):
            sa, sb = a.export_state(), b.export_state()
            for key in ("velocity", "residual"):
                assert sa[key].tobytes() == sb[key].tobytes()
            assert a.residual_norm == b.residual_norm

        for op, i, ratio in ops:
            i %= m
            if op == "compress":
                grad = np.round(rng.normal(size=dim), 2)
                ps = shared[i].compress(grad, ratio=ratio)
                pp = private[i].compress(grad, ratio=ratio)
                assert ps.data["indices"].tobytes() == pp.data["indices"].tobytes()
                assert ps.data["values"].tobytes() == pp.data["values"].tobytes()
                last[i] = (ps, pp)
            elif op == "restore" and i in last:
                ps, pp = last.pop(i)
                shared[i].restore(ps)
                private[i].restore(pp)
            elif op == "evict":  # exported, and re-materialised fresh
                fresh = DGCCompressor(dim, scratch=store, **kw)
                fresh.import_state(shared[i].export_state())
                shared[i] = fresh
            elif op == "reset":
                shared[i].reset()
                private[i].reset()
            elif op == "pickle":  # the cohort travels together, one store
                shared = pickle.loads(pickle.dumps(shared))
                store = shared[0]._scratch
                assert all(c._scratch is store for c in shared)
            same_state(shared[i], private[i])
            assert sum(c.state_nbytes() > 0 for c in shared) <= cap
            assert store._pairs <= cap
        for a, b in zip(shared, private):
            same_state(a, b)

    def _parked_pair(self, dim=300):
        """Two compressors under cap 1: ``a`` compressed, then parked."""
        store = DGCStateStore(dim, cap=1)
        a, b = (DGCCompressor(dim, scratch=store) for _ in range(2))
        grad = np.random.default_rng(3).normal(size=dim)
        a.compress(grad)
        b.compress(grad)
        assert a.state_nbytes() == 0 and b.state_nbytes() == 8 * dim
        assert a._ref in store._parked
        return store, a, b, grad

    def test_lazy_state_and_lru_order(self):
        dim = 50
        store = DGCStateStore(dim, cap=2)
        comps = [DGCCompressor(dim, scratch=store) for _ in range(3)]
        assert all(c.state_nbytes() == 0 for c in comps)  # never compressed
        # Importing a never-used state (zeros) under a cap holds nothing either.
        comps[0].import_state(DGCCompressor(dim).export_state())
        assert comps[0].state_nbytes() == 0 and comps[0]._ref is None
        assert comps[0].residual_norm == 0.0 and comps[0].state_nbytes() == 0
        comps[0].reset()
        assert comps[0].state_nbytes() == 0
        grad = np.random.default_rng(0).normal(size=dim)
        payload = comps[0].compress(grad)
        comps[1].compress(grad)
        comps[0].restore(payload)  # comps[0] is now the most recently used
        comps[2].compress(grad)
        assert [c.state_nbytes() > 0 for c in comps] == [True, False, True]
        assert (store.parks, store.reloads) == (1, 0)
        comps[1].compress(grad)
        assert [c.state_nbytes() > 0 for c in comps] == [False, True, True]
        assert (store.parks, store.reloads) == (2, 1)

    def test_flipped_byte_in_a_parked_slot_fails_closed(self):
        store, a, b, grad = self._parked_pair()
        slot, _ = store._parked[a._ref]
        fd, offset = store._file.fileno(), slot * 8 * a.dim + 5
        os.pwrite(fd, bytes([os.pread(fd, 1, offset)[0] ^ 0x10]), offset)
        for _ in range(2):  # never replaced by zeros: it fails every time
            with pytest.raises(FrameCorruptionError, match="CRC"):
                a.compress(grad)
        with pytest.raises(FrameCorruptionError):
            a.export_state()
        with pytest.raises(FrameCorruptionError):
            a.reset()
        assert a.state_nbytes() == 0
        b.compress(grad)  # the pair a failed to fill went back to the pool
        assert store._pairs == 1

    def test_short_read_of_a_parked_slot_fails_closed(self):
        store, a, b, grad = self._parked_pair()
        del b  # frees its pair: reloading a parks nothing past the cut
        os.ftruncate(store._file.fileno(), 8 * a.dim - 1)
        with pytest.raises(FrameCorruptionError, match="short read"):
            a.compress(grad)

    def test_a_dead_compressor_returns_its_pair_and_slot(self):
        store, a, b, grad = self._parked_pair()
        parked, resident = weakref.ref(a), weakref.ref(b)
        del a, b
        gc.collect()
        assert parked() is None and resident() is None
        assert not store._resident and not store._parked
        assert len(store._pool) == 1 and store._free_slots == [0]
        c = DGCCompressor(store.dim, scratch=store)
        c.compress(grad)
        assert store._pairs == 1 and not store._pool

    def test_parked_state_pickles_inline_and_readopts_under_the_cap(self):
        store, a, b, grad = self._parked_pair()
        want = [c.export_state() for c in (a, b)]
        blob = pickle.dumps([a, b])
        assert len(pickle.dumps(store)) < 200
        a2, b2 = pickle.loads(blob)
        assert a2._scratch is b2._scratch is not store
        assert sum(c.state_nbytes() > 0 for c in (a2, b2)) == 1  # cap 1 holds
        for c, state in zip((a2, b2), want):
            got = c.export_state()
            assert got["velocity"].tobytes() == state["velocity"].tobytes()
            assert got["residual"].tobytes() == state["residual"].tobytes()

    def test_exported_state_shares_no_buffer_with_a_live_compressor(self):
        store, a, b, grad = self._parked_pair()
        for comp in (a, b):
            state = comp.export_state()
            comp.import_state(state)
            for c in (a, b):
                for arr in (state["velocity"], state["residual"]):
                    assert c._velocity is None or not np.shares_memory(arr, c._velocity)
                    assert c._residual is None or not np.shares_memory(arr, c._residual)


class TestExactRestore:
    """Momentum and residual are float32 and a payload is a gather of
    the residual, so a NACK restore puts back exactly what was sent."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 7, 257, 40_000]),
        ratio=st.sampled_from([1.0, 4.0, 37.5, 210.0]),
        clip=st.booleans(),
        history=st.integers(0, 3),
    )
    def test_restore_returns_the_residual_compress_selected_from(
        self, seed, dim, ratio, clip, history
    ):
        rng = np.random.default_rng(seed)
        comp = DGCCompressor(dim, momentum=0.9, clip_norm=0.5 if clip else None)
        for _ in range(history):
            comp.compress(rng.normal(size=dim), ratio=ratio)
        seen = []

        def spy(values, k, magnitudes):
            seen.append(values.tobytes())
            return topk_indices(values, k, magnitudes)

        with mock.patch("repro.compression.dgc.topk_indices", spy):
            payload = comp.compress(rng.normal(size=dim) * 10.0, ratio=ratio)
        idx = payload.data["indices"].astype(np.int64)
        assert np.all(comp._velocity[idx] == 0.0)
        comp.restore(payload)
        assert comp._residual.tobytes() == seen[0]
        assert np.all(comp._velocity[idx] == 0.0)
        assert comp._velocity.dtype == comp._residual.dtype == np.float32
        assert comp.state_nbytes() == 8 * dim


class TestClipping:
    def test_large_gradient_clipped(self):
        comp = DGCCompressor(4, ratio=1.0, clip_norm=1.0, num_workers=1)
        grad = np.array([100.0, 0.0, 0.0, 0.0])
        restored = comp.decompress(comp.compress(grad)).to_dense()
        assert abs(np.linalg.norm(restored) - 1.0) < 1e-9

    def test_small_gradient_untouched(self):
        comp = DGCCompressor(4, ratio=1.0, clip_norm=10.0, num_workers=1)
        grad = np.array([0.1, 0.2, 0.0, 0.0])
        restored = comp.decompress(comp.compress(grad)).to_dense()
        np.testing.assert_allclose(restored, grad, atol=1e-7)

    def test_num_workers_scales_threshold(self):
        grad = np.array([2.0, 0.0])
        solo = DGCCompressor(2, ratio=1.0, clip_norm=2.0, num_workers=1)
        fleet = DGCCompressor(2, ratio=1.0, clip_norm=2.0, num_workers=4)
        solo_norm = np.linalg.norm(solo.decompress(solo.compress(grad)).to_dense())
        fleet_norm = np.linalg.norm(fleet.decompress(fleet.compress(grad)).to_dense())
        assert abs(solo_norm - 2.0) < 1e-9
        assert abs(fleet_norm - 1.0) < 1e-9  # 2/sqrt(4)


class TestConvergenceProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100), ratio=st.floats(2.0, 20.0))
    def test_error_feedback_tracks_dense_sum(self, seed, ratio):
        """Cumulative compressed signal approaches cumulative input."""
        rng = np.random.default_rng(seed)
        dim = 40
        comp = DGCCompressor(dim, clip_norm=None, use_momentum_correction=False)
        grads = rng.normal(size=(30, dim))
        sent = np.zeros(dim)
        for g in grads:
            sent += comp.decompress(comp.compress(g, ratio=ratio)).to_dense()
        total = grads.sum(axis=0)
        np.testing.assert_allclose(sent + comp._residual, total, atol=1e-4)
