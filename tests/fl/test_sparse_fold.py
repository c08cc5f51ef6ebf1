"""Sparse uploads fold by index, exactly as their dense scatter would.

A sparse codec's decoded upload is a :class:`SparseDelta` — the wire's
uint32 indices and float32 values — all the way to the fold.  Each
property compares it with the dense float64 vector the server used to
build by scattering, under ``tobytes()``, so zero signs and NaN
payloads count too.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CompressedGradient, SparseDelta, densify
from repro.compression.dgc import DGCCompressor
from repro.fl.client import ClientUpdate
from repro.fl.snapshot import load_snapshot
from repro.fl.strategy import WeightedFold
from repro.fl.validation import UpdateValidator, ValidationConfig
from repro.transport.sockets import RemoteCompressor
from repro.wire.frame import FRAME_OVERHEAD, Frame, FrameError
from tests.fl import trace_digest_cases as cases

# The values include infinities and NaN on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# float32 values the fold must carry exactly: signed zeros, the
# smallest subnormals, the largest finite values, infinities and NaN.
_SPECIAL = np.array(
    [0.0, -0.0, 1e-45, -1e-45, 3.4028235e38, -3.4028235e38, np.inf, -np.inf, np.nan],
    dtype=np.float32,
)


def _scatter(dim: int, indices, values) -> np.ndarray:
    """The reference: the dense vector the server used to build."""
    dense = np.zeros(dim, dtype=np.float64)
    dense[np.asarray(indices, dtype=np.int64)] = values
    return dense


def _update(delta, n: int = 1) -> ClientUpdate:
    return ClientUpdate(
        client_id=0, round_index=0, num_samples=n, delta=delta, train_loss=0.0, flops=0
    )


def _dense_fold(updates: list[ClientUpdate], dim: int) -> np.ndarray:
    """Eq. 2 over dense vectors: every term scattered, ``n_i * x_i``
    summed in order, then one division by the total weight; a NaN is
    the canonical quiet NaN, as the fold's."""
    expected = np.zeros(dim)
    for u in updates:
        dense = u.delta
        if isinstance(dense, SparseDelta):
            dense = _scatter(dim, dense.indices, dense.values)
        expected += u.num_samples * dense
    expected /= sum(u.num_samples for u in updates)
    expected[np.isnan(expected)] = np.nan
    return expected


@st.composite
def _values(draw, size: int) -> np.ndarray:
    out = np.array(
        draw(st.lists(st.floats(-1e6, 1e6, width=32), min_size=size, max_size=size)),
        dtype=np.float32,
    )
    for i in range(size):
        if draw(st.integers(0, 3)) == 0:
            out[i] = _SPECIAL[draw(st.integers(0, _SPECIAL.size - 1))]
    return out


@st.composite
def _sparse(draw, dim: int) -> SparseDelta:
    k = draw(st.one_of(st.just(0), st.just(dim), st.integers(0, dim)))
    chosen = draw(st.permutations(range(dim)))[:k]
    if draw(st.booleans()):
        chosen = sorted(chosen)  # the codecs' order; any order must fold the same
    return SparseDelta(dim, np.array(chosen, dtype=np.uint32), draw(_values(k)))


@st.composite
def _terms(draw) -> tuple[int, list[ClientUpdate]]:
    dim = draw(st.integers(1, 24))
    updates = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            delta = draw(_sparse(dim))
        else:
            delta = draw(_values(dim)).astype(np.float64)
        updates.append(_update(delta, draw(st.integers(1, 500))))
        if draw(st.integers(0, 4)) == 0:
            updates.append(updates[-1])  # a duplicated delivery
    return dim, updates


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(case=_terms())
    def test_fold_is_bit_equal_to_the_dense_scatter(self, case):
        dim, updates = case
        got = WeightedFold.of(updates).result()
        assert got.dtype == np.float64 and got.shape == (dim,)
        assert got.tobytes() == _dense_fold(updates, dim).tobytes()

    @pytest.mark.parametrize("dim", (32768, 100_003))
    def test_fold_interleaves_with_cache_blocks(self, dim):
        # Dense terms fold block by block, sparse ones by index; the
        # two interleave without changing any coordinate's term order.
        rng = np.random.default_rng(dim)
        updates = []
        for i in range(6):
            if i % 2:
                idx = np.sort(rng.choice(dim, size=dim // 4, replace=False))
                values = rng.standard_normal(idx.size).astype(np.float32)
                delta = SparseDelta(dim, idx, values)
            else:
                delta = rng.standard_normal(dim)
            updates.append(_update(delta, int(rng.integers(1, 500))))
        got = WeightedFold.of(updates).result()
        assert got.tobytes() == _dense_fold(updates, dim).tobytes()

    def test_mismatched_dims_rejected(self):
        sparse = SparseDelta(3, np.array([0], dtype=np.uint32), np.ones(1, np.float32))
        with pytest.raises(ValueError):
            WeightedFold.of([_update(np.ones(4)), _update(sparse)]).result()

    def test_the_view_holds_the_wire_arrays(self):
        comp = DGCCompressor(1000, ratio=10.0)
        payload = comp.compress(np.random.default_rng(0).standard_normal(1000))
        delta = comp.decompress(payload)
        assert isinstance(delta, SparseDelta)
        assert delta.indices is payload.data["indices"]
        assert delta.values is payload.data["values"]
        assert (delta.indices.dtype, delta.values.dtype) == (np.uint32, np.float32)
        assert delta.nbytes == 8 * delta.indices.size
        want = _scatter(1000, payload.data["indices"], payload.data["values"])
        assert densify(delta).tobytes() == want.tobytes()


class TestScreen:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 24),
        max_norm=st.one_of(st.none(), st.floats(1e-3, 1e40)),
    )
    def test_sparse_verdict_is_the_dense_verdict(self, data, dim, max_norm):
        delta = data.draw(_sparse(dim))
        validator = UpdateValidator(ValidationConfig(max_norm=max_norm))
        dense = _scatter(dim, delta.indices, delta.values)
        assert validator.screen(delta) == validator.screen(dense)

    def test_float32_extremes_do_not_overflow_the_screen(self):
        # Two largest float32 values overflow a float32 sum, not float64.
        top = np.float32(3.4028235e38)
        delta = SparseDelta(4, np.array([0, 2], np.uint32), np.array([top, top]))
        assert UpdateValidator(ValidationConfig()).screen(delta) is None
        assert UpdateValidator(ValidationConfig()).screen(delta.to_dense()) is None


def _coo_frame(dim: int, indices: np.ndarray, values: np.ndarray) -> bytes:
    """A DGC COO frame whose payload is written raw, as any peer could."""
    payload = indices.astype("<u4").tobytes() + values.astype("<f4").tobytes()
    wire = bytearray(FRAME_OVERHEAD) + payload
    return bytes(Frame.over(wire, 2, 0, dim, 0).to_bytes())


class TestPeerFrames:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 32))
    def test_bad_indices_fail_typed_or_fold_exactly(self, data, dim):
        k = data.draw(st.integers(1, 12))
        indices = np.array(
            data.draw(st.lists(st.integers(0, dim + 3), min_size=k, max_size=k)),
            dtype=np.uint32,
        )
        values = data.draw(_values(k))
        bad = int(indices.max()) >= dim or np.unique(indices).size != k
        frame = Frame.from_bytes(_coo_frame(dim, indices, values))
        try:
            delta = RemoteCompressor(None, 0).decompress(CompressedGradient.from_frame(frame))
        except FrameError:
            assert bad
            return
        assert not bad
        want = _dense_fold([_update(_scatter(dim, indices, values))], dim)
        assert WeightedFold.of([_update(delta)]).result().tobytes() == want.tobytes()

    def test_remote_and_local_decompress_agree(self):
        comp = DGCCompressor(500, ratio=5.0)
        payload = comp.compress(np.random.default_rng(1).standard_normal(500))
        back = CompressedGradient.from_frame(Frame.from_bytes(payload.to_frame(0).to_bytes()))
        remote = RemoteCompressor(None, 0).decompress(back)
        assert isinstance(remote, SparseDelta)
        assert remote.to_dense().tobytes() == comp.decompress(payload).to_dense().tobytes()


def test_snapshot_queues_sparse_payloads():
    """What ``async_adafl_resume`` resumes from: uploads in flight are
    held as their wire arrays, and the snapshot keeps them that way."""
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "run.snapshot"
        engine = cases._async_engine(
            25, network=cases._net(), strategy=cases._adafl_async(),
            snapshot_path=snap, snapshot_every=1, on_snapshot=cases._kill_at(12),
        )
        with pytest.raises(cases._Killed):
            engine.run()
        restored = load_snapshot(snap, keep_snapshotting=False)
    queued = [
        e.payload.delta for e in restored._kernel.queue._heap
        if e.kind == "update_arrival"
    ]
    assert queued and all(isinstance(d, SparseDelta) for d in queued)
