"""§V scalability claim — AdaFL with 20 to 100 clients, and beyond.

The paper states AdaFL was additionally evaluated "with 20 to 100
clients to assess its scalability".  This grid sweeps the federation
size, holding per-client data volume constant, and reports accuracy,
update frequency, and communication volume per size.

:func:`run_population_smoke` goes past the paper's 100 clients: it
drives a federated round over a **virtual population** of (by default)
100 000 clients through the :class:`~repro.fl.population.ClientPopulation`
registry, where only the active cohort is ever materialised.  The
returned accounting (peak live clients, live bytes, descriptor bytes,
materialization counts) is what the ``population`` bench section and
the CLI ``scalability --population`` path report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.core.selection import reservoir_sample
from repro.data.dataset import Dataset
from repro.data.synthetic import make_image_classification
from repro.experiments.presets import ExperimentScale
from repro.experiments.spec import Named, RunSpec
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.client import Client
from repro.fl.config import FederationConfig, LocalTrainingConfig
from repro.fl.population import ClientPopulation, RetentionPolicy
from repro.fl.server import Server
from repro.fl.sync_engine import SyncEngine
from repro.nn.models import build_mlp

__all__ = ["scalability_grid", "SyntheticShardFactory", "run_population_smoke"]

_CLIENT_COUNTS = (20, 50, 100)
_SAMPLES_PER_CLIENT = 40


def scalability_grid(scale: ExperimentScale, seed: int) -> dict[tuple[int, str], RunSpec]:
    """``(num_clients, method)``: AdaFL, then FedAvg (r_p = 0.5), at each
    federation size."""
    grid = {}
    for n in _CLIENT_COUNTS:
        samples = max(scale.train_samples, n * _SAMPLES_PER_CLIENT)
        sized = replace(scale, num_clients=n, train_samples=samples)
        base = RunSpec.of(
            sized, seed, distribution="shard",
            network=Named("constrained", {"seed_offset": n}),  # a fresh mix per size
        )
        for method in ("adafl", "fedavg"):
            grid[n, method] = base.vary(strategy=method)
    return grid


# ---------------------------------------------------------------------------
# Population-scale smoke: 100k virtual clients in O(active) memory
# ---------------------------------------------------------------------------

_SMOKE_SHAPE = (1, 6, 6)
_SMOKE_CLASSES = 4


@lru_cache(maxsize=8)
def _base_shard(
    samples_per_client: int,
    num_classes: int,
    image_shape: tuple[int, int, int],
    seed: int,
) -> Dataset:
    """The shard every client of one factory subsets, built once.

    A pure function of its literal arguments, so memoising it per
    process cannot change any rebuild; the arrays are frozen and
    clients only ever receive ``subset`` copies.  Living at module
    level keeps it out of the factory's pickle (and so of snapshots).
    """
    shard = make_image_classification(
        n_train=samples_per_client,
        n_test=num_classes,
        num_classes=num_classes,
        image_shape=image_shape,
        noise_std=0.4,
        seed=seed,  # shared prototypes across the factory's clients
    )[0]
    shard.x.setflags(write=False)
    shard.y.setflags(write=False)
    return shard


@dataclass(frozen=True)
class SyntheticShardFactory:
    """Picklable ``client_fn`` for virtual populations.

    Each client's tiny synthetic shard and shuffling RNG are derived
    from literal seeds, so any client can be rebuilt bit-identically at
    any time — the regenerate retention mode's contract.  The factory
    travels inside snapshots (it is the population's ``client_fn``), so
    it must stay a plain picklable value object.
    """

    num_clients: int
    samples_per_client: int = 8
    seed: int = 0
    image_shape: tuple[int, int, int] = _SMOKE_SHAPE
    num_classes: int = _SMOKE_CLASSES
    hidden: tuple[int, ...] = (12,)
    model_seed: int = 99

    def model_fn(self):
        """Deterministic model replica (same weights for every call)."""
        return build_mlp(
            self.image_shape,
            num_classes=self.num_classes,
            hidden=self.hidden,
            seed=self.model_seed,
        )

    def test_set(self, n_test: int = 40):
        """A shared held-out set for server-side evaluation."""
        return make_image_classification(
            n_train=1,
            n_test=n_test,
            num_classes=self.num_classes,
            image_shape=self.image_shape,
            noise_std=0.4,
            seed=self.seed,
        )[1]

    def __call__(self, cid: int) -> Client:
        if not 0 <= cid < self.num_clients:
            raise ValueError(f"client id {cid} out of range")
        shard = _base_shard(
            self.samples_per_client,
            self.num_classes,
            tuple(self.image_shape),
            self.seed,
        )
        # Shared base shard, per-client sample draw: subsetting (a
        # copy) by a per-seed permutation keeps shards distinct and
        # mutation-isolated at no per-client generation cost.
        rng = np.random.default_rng(self.seed * 1_000_003 + cid)
        order = rng.permutation(len(shard))
        return Client(
            cid,
            shard.subset(np.sort(order[: max(2, len(shard) // 2)])),
            self.model_fn,
            seed=self.seed + 17 * cid + 1,
        )


def run_population_smoke(
    num_clients: int = 100_000,
    rounds: int = 2,
    cohort: int = 20,
    mode: str = "regenerate",
    spill_dir=None,
    engine: str = "sync",
    seed: int = 0,
    sample_check: int = 8,
) -> dict:
    """One bounded-memory federated run over a virtual population.

    Returns a flat accounting dict (no heavyweight objects) so the CLI
    and the bench section can serialise it directly.  The key claim —
    live heavy state stays O(active cohort), never O(population) — is
    asserted here, not just reported.
    """
    if cohort < 1 or cohort > num_clients:
        raise ValueError("cohort must be in [1, num_clients]")
    if engine not in ("sync", "async"):
        raise ValueError("engine must be 'sync' or 'async'")
    factory = SyntheticShardFactory(num_clients=num_clients, seed=seed)
    policy = RetentionPolicy(
        mode=mode,
        max_live=max(2 * cohort, 2),
        spill_dir=spill_dir,
    )
    population = ClientPopulation(
        num_clients=num_clients, client_fn=factory, policy=policy
    )
    server = Server(factory.model_fn, factory.test_set())
    # The clients it materialises borrow the server's scratch model.
    server.adopt_replica(population.replicas)
    local = LocalTrainingConfig(local_epochs=1, batch_size=8, lr=0.1)
    if engine == "sync":
        config = FederationConfig(
            num_rounds=rounds,
            participation_rate=cohort / num_clients,
            eval_every=rounds,
            seed=seed,
            local=local,
        )
        result = SyncEngine(
            server, population, FedAvg(participation_rate=cohort / num_clients),
            config,
        ).run()
    else:
        config = FederationConfig(
            num_rounds=rounds,
            participation_rate=cohort / num_clients,
            eval_every=max(1, rounds * cohort),
            seed=seed,
            local=local,
            max_sim_time_s=1e9,
            max_updates=rounds * cohort,
            async_cohort=cohort,
        )
        result = AsyncEngine(server, population, FedAsync(), config).run()

    stats = population.stats
    if stats.peak_live > policy.max_live + cohort:
        raise AssertionError(
            f"live clients peaked at {stats.peak_live}, above the "
            f"O(active) bound {policy.max_live + cohort}"
        )
    # Spot-check regeneration determinism on a uniform reservoir sample
    # of ids — O(sample) memory, never an O(population) candidate list.
    sampled = (
        reservoir_sample(
            population.ids(), min(sample_check, num_clients),
            np.random.default_rng(seed + 1),
        )
        if sample_check > 0
        else []
    )
    rebuilds_verified = 0
    for cid in sampled:
        # Everything a rebuilt client owns: its shard and its RNG (the
        # model it trains on is the population's, not the client's).
        a, b = factory(cid), factory(cid)
        if (
            np.array_equal(a.dataset.x, b.dataset.x)
            and np.array_equal(a.dataset.y, b.dataset.y)
            and a.extract_state()["rng"] == b.extract_state()["rng"]
        ):
            rebuilds_verified += 1
    if rebuilds_verified != len(sampled):
        raise AssertionError("client regeneration is not deterministic")

    return {
        "engine": engine,
        "mode": mode,
        "num_clients": num_clients,
        "rounds": rounds,
        "cohort": cohort,
        "max_live": policy.max_live,
        "total_uploads": int(result.total_uploads),
        "final_accuracy": float(result.final_accuracy),
        "materializations": stats.materializations,
        "restores": stats.restores,
        "evictions": stats.evictions,
        "spills": stats.spills,
        "peak_live": stats.peak_live,
        "peak_live_nbytes": stats.peak_live_nbytes,
        "live_count_end": population.live_count,
        "retained_nbytes": population.retained_nbytes(),
        "descriptor_nbytes": population.descriptor_nbytes(),
        "descriptor_bytes_per_client": (
            population.descriptor_nbytes() / num_clients
        ),
        "sampled_rebuilds_verified": rebuilds_verified,
    }
