"""Virtual client population: registry lifecycle + eviction determinism.

Three layers of guarantees are pinned here:

* **registry mechanics** — LRU touch order, spill/regenerate round
  trips, lifecycle accounting, hook semantics, pickling;
* **eviction determinism** (the tentpole's acceptance bar) — all six
  committed equivalence trajectories stay bit-identical when the same
  federation is rebuilt as a virtual population under heavy eviction
  churn (``max_live=2`` forces evict/rematerialise every round), for
  both the spill and the regenerate retention modes, plus a chaos run
  (crashes + corrupted frames) compared across all three policies;
* **snapshot interplay** — a 100 000-client run snapshots in
  O(retained) state, loading the snapshot materialises **zero**
  clients, and the resumed run's trace is the byte-exact suffix of the
  uninterrupted run's trace.
"""

from __future__ import annotations

import gc
import json
import pickle
import weakref

import numpy as np
import pytest

from repro.core.adafl import AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.experiments.scalability import SyntheticShardFactory, run_population_smoke
from repro.fl.baselines import FedAvg
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.persist import run_result_to_dict
from repro.fl.population import ClientPopulation, RetentionPolicy
from repro.fl.server import Server
from repro.fl.snapshot import load_snapshot
from repro.fl.sync_engine import SyncEngine
from repro.sim import (
    ClientCrashModel,
    EventTrace,
    FaultPlan,
    JsonlSink,
    PayloadCorruptionModel,
)
from tests.fl.equiv_cases import (
    BASELINE_PATH,
    CASES,
    _federation,
    _jittery_net,
    _sync_config,
    trajectory,
)

LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=4, lr=0.1)


def _factory(n: int) -> SyntheticShardFactory:
    return SyntheticShardFactory(num_clients=n, seed=3)


def _virtual(n=4, mode="regenerate", max_live=2, spill_dir=None) -> ClientPopulation:
    policy = RetentionPolicy(mode=mode, max_live=max_live, spill_dir=spill_dir)
    return ClientPopulation(num_clients=n, client_fn=_factory(n), policy=policy)


def _assert_state_equal(a, b, path="state"):
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_state_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b, equal_nan=True), path
    else:
        assert a == b, path


class TestRetentionPolicy:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            RetentionPolicy(mode="lazy")
        with pytest.raises(ValueError, match="max_live"):
            RetentionPolicy(max_live=0)
        with pytest.raises(ValueError, match="spill_dir"):
            RetentionPolicy(mode="spill")
        RetentionPolicy(mode="spill", spill_dir=tmp_path)  # ok


class TestRegistry:
    def test_ensure_wraps_lists_and_passes_populations_through(self):
        factory = _factory(3)
        clients = [factory(i) for i in range(3)]
        pop = ClientPopulation.ensure(clients)
        assert isinstance(pop, ClientPopulation)
        assert pop.always_live
        assert len(pop) == 3
        assert pop[1] is clients[1]
        assert ClientPopulation.ensure(pop) is pop

    def test_live_mode_requires_contiguous_ids(self):
        factory = _factory(3)
        with pytest.raises(ValueError, match="contiguous"):
            ClientPopulation([factory(1)])

    def test_construction_validation(self):
        factory = _factory(2)
        with pytest.raises(ValueError, match="either"):
            ClientPopulation([factory(0)], num_clients=2)
        with pytest.raises(ValueError, match="spill or regenerate"):
            ClientPopulation(num_clients=2, client_fn=factory)
        with pytest.raises(ValueError, match="always-live"):
            ClientPopulation(
                [factory(0)], policy=RetentionPolicy(mode="regenerate")
            )

    def test_id_views(self):
        pop = _virtual(5)
        assert pop.ids() == range(5)  # O(1): no id list is ever built
        assert list(pop.initial_ids(None)) == [0, 1, 2, 3, 4]
        assert list(pop.initial_ids(2)) == [0, 1]
        assert list(pop.initial_ids(99)) == [0, 1, 2, 3, 4]

    def test_out_of_range_and_wrong_factory_id(self):
        pop = _virtual(2)
        with pytest.raises(KeyError):
            pop[5]
        factory = _factory(4)
        bad = ClientPopulation(
            num_clients=4,
            client_fn=lambda cid: factory(0),
            policy=RetentionPolicy(mode="regenerate"),
        )
        with pytest.raises(ValueError, match="id"):
            bad[1]

    def test_note_seen_stamps_descriptors(self):
        pop = _virtual(6)
        pop.note_seen([1, 4], 7)
        pop.note_seen((), 9)  # no-op
        assert pop.last_seen_round[1] == 7
        assert pop.last_seen_round[4] == 7
        assert pop.last_seen_round[0] == -1
        assert np.isnan(pop.scores).all()
        assert pop.descriptor_nbytes() == 6 * (8 + 8 + 8)


class TestLifecycle:
    def test_lru_eviction_order(self):
        pop = _virtual(4, max_live=2)
        pop[0], pop[1], pop[2]
        pop[1]  # touch: 1 becomes most-recent
        pop.evict_to_cap()
        assert set(pop.live_ids()) == {1, 2}
        assert pop.stats.evictions == 1

    def test_release_evicts_one(self):
        pop = _virtual(3)
        pop[0]
        pop.release(0)
        assert pop.live_count == 0
        pop.release(0)  # absent: no-op
        assert pop.stats.evictions == 1

    def test_always_live_never_evicts(self):
        factory = _factory(3)
        pop = ClientPopulation.ensure([factory(i) for i in range(3)])
        pop.release(0)
        pop.evict_to_cap()
        assert pop.live_count == 3

    @pytest.mark.parametrize("mode", ["spill", "regenerate"])
    def test_evict_rematerialize_roundtrip(self, mode, tmp_path):
        pop = _virtual(
            3, mode=mode, max_live=1,
            spill_dir=tmp_path if mode == "spill" else None,
        )
        c0 = pop[0]
        gp = c0.replica.model.get_flat_params().copy()
        # Retained as the engine retains it for a strategy that reads it.
        c0.last_delta = c0.local_train(gp, LOCAL).delta
        before = c0.extract_state()
        pop[1]
        pop.evict_to_cap()  # evicts client 0 (LRU)
        assert pop.live_count == 1
        if mode == "spill":
            assert (tmp_path / "client-00000000.blob").exists()
            assert pop.stats.spills == 1
            assert pop.retained_nbytes() == 0
        else:
            assert pop.stats.spills == 0
            assert pop.retained_nbytes() > 0
        rebuilt = pop[0]
        assert rebuilt is not c0
        _assert_state_equal(before, rebuilt.extract_state())
        assert pop.stats.restores == 1
        assert pop.stats.materializations == 3

    def test_unreadable_spill_stays_claimable(self, tmp_path):
        # A failed read must not drop the spill marker, or the next
        # materialisation silently starts a fresh trajectory.
        pop = _virtual(2, mode="spill", max_live=1, spill_dir=tmp_path)
        c0 = pop[0]
        c0.local_train(c0.replica.model.get_flat_params().copy(), LOCAL)
        spilled_rng = c0.extract_state()["rng"]
        pop[1]
        pop.evict_to_cap()  # spills 0
        blob = tmp_path / "client-00000000.blob"
        aside = blob.rename(tmp_path / "aside")
        with pytest.raises(FileNotFoundError):
            pop[0]
        aside.rename(blob)
        restores = pop.stats.restores
        assert pop[0].extract_state()["rng"] == spilled_rng
        assert pop.stats.restores == restores + 1

    def test_accounting(self):
        pop = _virtual(4, max_live=2)
        pop[0], pop[1], pop[2]
        assert pop.stats.peak_live == 3
        assert pop.live_nbytes() > 0
        assert pop.stats.peak_live_nbytes > 0
        pop.evict_to_cap()
        assert pop.live_count == 2

    def test_materialize_hook_runs_per_build(self):
        pop = _virtual(2, max_live=1)
        seen = []
        pop.on_materialize(lambda c: seen.append(c.client_id))
        pop[0]
        pop[0]  # cached: hook must not re-run
        assert seen == [0]
        pop[1]
        pop.evict_to_cap()
        pop[0]  # re-materialised: hook runs again
        assert seen == [0, 1, 0]

    def test_materialize_hook_eager_on_live_path(self):
        factory = _factory(3)
        pop = ClientPopulation.ensure([factory(i) for i in range(3)])
        seen = []
        pop.on_materialize(lambda c: seen.append(c.client_id))
        assert seen == [0, 1, 2]  # applied immediately, in id order


class TestPickling:
    def test_snapshot_collapses_live_clients(self, tmp_path):
        pop = _virtual(3, mode="spill", max_live=2, spill_dir=tmp_path)
        c0 = pop[0]
        c0.local_train(c0.replica.model.get_flat_params().copy(), LOCAL)
        before = c0.extract_state()
        pop[1], pop[2]
        pop.evict_to_cap()  # client 0 spills to disk
        loaded = pickle.loads(pickle.dumps(pop))
        assert loaded.live_count == 0  # nothing materialised by loading
        # The one scratch replica travels, for the next client to claim.
        (replica,) = loaded._replicas
        rebuilt = loaded[0]  # restored from the spill blob on disk
        _assert_state_equal(before, rebuilt.extract_state())
        assert rebuilt.replica is replica

    def test_pickled_state_prefers_ram_over_stale_spill(self, tmp_path):
        # A client that was spilled, restored, trained further, and is
        # live at snapshot time: the snapshot must carry the *current*
        # state, and the stale blob on disk must not shadow it on load.
        pop = _virtual(2, mode="spill", max_live=1, spill_dir=tmp_path)
        c0 = pop[0]
        pop[1]
        pop.evict_to_cap()  # spills 0
        c0 = pop[0]  # restore 0 (evicts nothing yet; cap trims below)
        c0.local_train(c0.replica.model.get_flat_params().copy(), LOCAL)
        current = c0.extract_state()
        loaded = pickle.loads(pickle.dumps(pop))
        _assert_state_equal(current, loaded[0].extract_state())


# ---------------------------------------------------------------------------
# Eviction determinism: the committed baseline under every policy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text())


def _strip_async_fields(case: str, records: list[dict]) -> list[dict]:
    if not case.startswith("async"):
        return records
    return [{k: v for k, v in r.items() if k != "dropped_uploads"} for r in records]


@pytest.mark.parametrize("mode", ["spill", "regenerate"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_eviction_trajectories_match_baseline(case, mode, tmp_path, baseline):
    """max_live=2 forces evict/rematerialise churn every round; the
    trajectory must still match the committed always-live baseline bit
    for bit."""
    policy = RetentionPolicy(
        mode=mode, max_live=2,
        spill_dir=tmp_path if mode == "spill" else None,
    )
    actual = _strip_async_fields(case, trajectory(CASES[case](policy=policy)))
    expected = _strip_async_fields(case, baseline[case])
    assert actual == expected


def _chaos_run(policy):
    server, clients = _federation(10, policy)
    chaos = FaultPlan(
        ClientCrashModel(mtbf_s=0.05, mean_downtime_s=0.02),
        PayloadCorruptionModel(prob=0.3, kind="bitflip"),
    )
    return SyncEngine(
        server, clients, FedAvg(participation_rate=1.0),
        _sync_config(4), network=_jittery_net(), chaos=chaos,
    ).run()


def test_chaos_run_identical_across_policies(tmp_path):
    """Crashes + corrupted frames: all three retention policies must
    walk the exact same trajectory (same drops, same survivors)."""
    live = _chaos_run(None)
    spill = _chaos_run(
        RetentionPolicy(mode="spill", max_live=2, spill_dir=tmp_path)
    )
    regen = _chaos_run(RetentionPolicy(mode="regenerate", max_live=1))
    assert trajectory(spill) == trajectory(live)
    assert trajectory(regen) == trajectory(live)
    # The chaos actually bit: crashes sat clients out, and bit-flipped
    # frames were rejected by the CRC check (same count under eviction).
    rejected = sum(r.rejected_uploads for r in live.records)
    assert rejected > 0
    assert sum(r.rejected_uploads for r in spill.records) == rejected
    assert any(len(r.participants) < 5 for r in live.records)


class _WatchedAdaFL(AdaFLSync):
    """Sync AdaFL that keeps a weak reference to every compressor it
    attaches (not picklable: for runs without snapshots)."""

    def __init__(self):
        policy = AdaptiveCompressionPolicy(warmup_rounds=1)
        super().__init__(AdaFLConfig(k_max=2, tau=0.0, policy=policy))
        self.attached = []

    def _attach_compressor(self, client):
        super()._attach_compressor(client)
        self.attached.append(weakref.ref(client.compressor))


def _watched_adafl_run(policy):
    server, clients = _federation(30, policy)
    strategy = _WatchedAdaFL()
    engine = SyncEngine(server, clients, strategy, _sync_config(6), network=_jittery_net())
    return engine.run(), strategy, engine.clients


@pytest.mark.parametrize("mode", ["spill", "regenerate"])
def test_parked_dgc_state_under_eviction(mode, tmp_path):
    """Sync AdaFL with ``k_max = 2`` parks DGC states in its store while
    the population evicts clients (``max_live = 2``).  The run walks
    the always-live trajectory; the store keeps no evicted client's
    compressor alive, and no exported state shares a buffer with a
    live compressor or the store's pool."""
    expected, _, _ = _watched_adafl_run(None)
    policy = RetentionPolicy(
        mode=mode, max_live=2, spill_dir=tmp_path if mode == "spill" else None
    )
    result, strategy, pop = _watched_adafl_run(policy)
    assert trajectory(result) == trajectory(expected)
    store = strategy._scratch
    assert store.parks > 0 and pop.stats.evictions > 0
    gc.collect()
    live = {id(pop[cid].compressor): pop[cid] for cid in list(pop.live_ids())}
    assert len(strategy.attached) > len(live)
    assert all(ref() is None or id(ref()) in live for ref in strategy.attached)
    tracked = list(store._resident) + list(store._parked)
    assert all(id(ref()) in live for ref in tracked)
    pairs = list(store._resident.values()) + store._pool
    exported = [c.extract_state()["compressor"] for c in live.values()]
    exported += [s["compressor"] for s in pop._retained.values()]
    for state in exported:
        for arr in (state["velocity"], state["residual"]):
            assert not any(np.shares_memory(arr, buf) for pair in pairs for buf in pair)


# ---------------------------------------------------------------------------
# Snapshot interplay at population scale (100k clients)
# ---------------------------------------------------------------------------

_POP_N = 100_000
_POP_COHORT = 20


class _Killed(RuntimeError):
    pass


def _build_100k(trace=None, **kwargs) -> SyncEngine:
    factory = SyntheticShardFactory(num_clients=_POP_N, seed=5)
    pop = ClientPopulation(
        num_clients=_POP_N,
        client_fn=factory,
        policy=RetentionPolicy(mode="regenerate", max_live=2 * _POP_COHORT),
    )
    server = Server(factory.model_fn, factory.test_set())
    rate = _POP_COHORT / _POP_N
    config = FederationConfig(
        num_rounds=3, participation_rate=rate, eval_every=3, seed=5,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1),
    )
    return SyncEngine(
        server, pop, FedAvg(participation_rate=rate), config,
        trace=trace, **kwargs,
    )


def test_100k_snapshot_resume_is_o_active_and_bit_identical(tmp_path):
    ref_trace = tmp_path / "ref.jsonl"
    trace = EventTrace([JsonlSink(ref_trace)])
    reference = _build_100k(trace=trace).run()
    trace.close()

    def kill_at_round_2(engine):
        if engine._next_round >= 2:
            raise _Killed()

    snap = tmp_path / "run.snapshot"
    pre_trace = tmp_path / "pre.jsonl"
    trace = EventTrace([JsonlSink(pre_trace)])
    engine = _build_100k(
        trace=trace, snapshot_path=snap, snapshot_every=1,
        on_snapshot=kill_at_round_2,
    )
    with pytest.raises(_Killed):
        engine.run()
    trace.close()

    post_trace = tmp_path / "post.jsonl"
    trace = EventTrace([JsonlSink(post_trace)])
    restored = load_snapshot(snap, trace=trace, keep_snapshotting=False)

    # Loading must NOT re-materialise the population: zero live
    # clients, and the whole snapshot stayed O(retained), not O(100k).
    pop = restored.clients
    assert isinstance(pop, ClientPopulation)
    assert pop.live_count == 0
    mats_at_load = pop.stats.materializations
    assert snap.stat().st_size < 64 * 1024 * 1024  # descriptors, not clients

    resumed = restored.resume()
    trace.close()

    assert pre_trace.read_bytes() + post_trace.read_bytes() == ref_trace.read_bytes()
    assert run_result_to_dict(resumed) == run_result_to_dict(reference)
    # The resumed round touched at most one cohort's worth of clients.
    assert pop.stats.materializations - mats_at_load <= 2 * _POP_COHORT
    assert pop.stats.peak_live <= 3 * _POP_COHORT


def test_population_smoke_asserts_bounded_live_state(tmp_path):
    out = run_population_smoke(
        num_clients=2000, rounds=2, cohort=10, mode="spill",
        spill_dir=tmp_path, engine="sync", seed=1,
    )
    assert out["peak_live"] <= out["max_live"] + out["cohort"]
    assert out["live_count_end"] <= out["max_live"]
    assert out["total_uploads"] == 20
    assert out["sampled_rebuilds_verified"] == 8
    assert out["descriptor_bytes_per_client"] == 24.0
