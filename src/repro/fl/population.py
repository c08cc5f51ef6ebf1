"""Virtual client population: a registry with lazy materialization.

The paper targets fleets of embedded devices, but a naive simulation
materialises every :class:`~repro.fl.client.Client` eagerly — a
dataset shard and (for AdaFL) ~O(d) of DGC residual + momentum state
per client, plus an O(d) retained delta under async AdaFL.  That caps
runs at a few dozen clients while real federations have thousands to
millions.

:class:`ClientPopulation` decouples the two scales:

* every client always has a cheap **descriptor** — its id plus scalar
  metadata kept in preallocated numpy arrays (utility score, last
  upload round, last seen round), a few bytes per client;
* the heavy **state** (the ``Client`` object: dataset shard, SCAFFOLD
  variate, retained delta, DGC residuals) exists only while the client is
  *materialised* — typically just the active cohort of a round;
* the **scratch model** those clients train on — parameters, gradients,
  hoisted SGD momentum, conv workspaces — belongs to the registry, one
  :class:`~repro.fl.replica.ModelReplica` per architecture that every
  materialised client borrows, so its cost never scales with the
  cohort.

Eviction follows a :class:`RetentionPolicy`:

* ``"live"`` — the compat path: every client stays materialised
  forever.  Constructing a population from a ``list[Client]`` uses
  this mode, so existing engines and the six pinned equivalence
  trajectories are bit-identical by construction.
* ``"spill"`` — on eviction the client's cross-round state (RNG
  streams, control variate, retained delta, compressor residuals) is
  sealed into a :mod:`repro.wire` blob frame on disk; RAM cost per
  evicted client is O(1).
* ``"regenerate"`` — everything derivable from the client factory
  (the dataset shard) is dropped and rebuilt from seed
  on the next materialization; only the irreducible cross-round state
  stays in RAM.  For stateless strategies (FedAvg/FedAsync without
  compressors) that is just an RNG state — a few hundred bytes.

All three policies produce **bit-identical trajectories**: the
extract/restore split on :class:`~repro.fl.client.Client` captures
every cross-round observable (shuffling RNG, control variates, retained
deltas, compressor buffers), and the pinned equivalence suite asserts
it.

Materialization hooks let strategies attach per-client machinery
(AdaFL's DGC compressors) without ever iterating the full population;
they are bound strategy methods and travel with the snapshot.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.fl.client import Client
from repro.fl.replica import ModelReplica
from repro.wire.frame import seal, unseal

__all__ = ["RetentionPolicy", "ClientPopulation", "PopulationStats"]

_MODES = ("live", "spill", "regenerate")


@dataclass(frozen=True)
class RetentionPolicy:
    """What happens to a materialised client once the round moves on.

    ``max_live`` is the LRU cap on simultaneously materialised clients
    enforced by :meth:`ClientPopulation.evict_to_cap`; a round whose
    cohort exceeds the cap simply peaks above it until the engine's
    end-of-round trim.  ``spill_dir`` is required by (and only used
    with) the ``"spill"`` mode.
    """

    mode: str = "live"
    max_live: int = 64
    spill_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown retention mode {self.mode!r}; expected {_MODES}")
        if self.max_live < 1:
            raise ValueError("max_live must be at least 1")
        if self.mode == "spill" and self.spill_dir is None:
            raise ValueError("spill mode requires a spill_dir")


@dataclass
class PopulationStats:
    """Lifecycle accounting — the bench's peak-RSS proxy."""

    materializations: int = 0
    restores: int = 0
    evictions: int = 0
    spills: int = 0
    peak_live: int = 0
    peak_live_nbytes: int = 0


class ClientPopulation:
    """Registry of client descriptors with lazy heavy-state lifecycle.

    Engines index it exactly like the ``list[Client]`` it replaces
    (``population[cid]`` materialises and returns the client), so the
    always-live compat mode is a drop-in wrapper around existing
    client lists.
    """

    # Registry-facade marker recognised by :meth:`ensure` (shared with
    # non-subclass facades like the transport's remote population).
    is_population = True

    def __init__(
        self,
        clients: list[Client] | None = None,
        *,
        num_clients: int | None = None,
        client_fn: Callable[[int], Client] | None = None,
        policy: RetentionPolicy | None = None,
    ):
        # The scratch models materialised clients borrow, one per
        # architecture (see repro.fl.replica).
        self._replicas: list[ModelReplica] = []
        if clients is not None:
            if num_clients is not None or client_fn is not None:
                raise ValueError("pass either clients or num_clients/client_fn")
            if policy is not None and policy.mode != "live":
                raise ValueError("a population built from live clients is always-live")
            for pos, c in enumerate(clients):
                if c.client_id != pos:
                    raise ValueError(
                        f"client at position {pos} has id {c.client_id}; "
                        "populations require contiguous ids from 0"
                    )
            self._policy = policy or RetentionPolicy(mode="live")
            self._client_fn = None
            self._num = len(clients)
            self._live: dict[int, Client] = {c.client_id: c for c in clients}
            for c in clients:
                c.adopt_replica(self._replicas)
        else:
            if num_clients is None or client_fn is None:
                raise ValueError("virtual populations need num_clients and client_fn")
            if num_clients < 1:
                raise ValueError("num_clients must be positive")
            if policy is None or policy.mode == "live":
                raise ValueError(
                    "virtual populations need a spill or regenerate policy"
                )
            self._policy = policy
            self._client_fn = client_fn
            self._num = int(num_clients)
            self._live = {}
        # Cross-round state of evicted clients (regenerate mode keeps
        # it in RAM; spill mode only parks live-at-snapshot state here).
        self._retained: dict[int, dict] = {}
        self._spilled: set[int] = set()
        # Preallocated per-client scalar metadata (the descriptors).
        self.scores = np.full(self._num, np.nan, dtype=np.float64)
        self.last_upload_round = np.full(self._num, -1, dtype=np.int64)
        self.last_seen_round = np.full(self._num, -1, dtype=np.int64)
        self._materialize_hooks: list[Callable[[Client], None]] = []
        self.stats = PopulationStats()
        self._all_ids: list[int] | None = None
        self._all_ids_array: np.ndarray | None = None

    # -- registry ------------------------------------------------------
    def __len__(self) -> int:
        return self._num

    @property
    def policy(self) -> RetentionPolicy:
        """The retention policy governing eviction."""
        return self._policy

    @property
    def always_live(self) -> bool:
        """True on the compat path (population built from live clients)."""
        return self._client_fn is None

    def ids(self) -> range:
        """Every client id, cheapest possible iteration."""
        return range(self._num)

    def all_ids(self) -> list[int]:
        """Cached list of every id; callers must not mutate it."""
        if self._all_ids is None:
            self._all_ids = list(range(self._num))
        return self._all_ids

    def all_ids_array(self) -> np.ndarray:
        """Cached read-only int64 array of every id.

        Full-registry uniform selection draws from this array, so a
        round over 100k clients never converts an id list.
        """
        if self._all_ids_array is None:
            self._all_ids_array = np.arange(self._num, dtype=np.int64)
            self._all_ids_array.setflags(write=False)
        return self._all_ids_array

    def initial_ids(self, limit: int | None) -> range:
        """The ids an async engine boots with (``limit`` caps the fan-out)."""
        if limit is None:
            return range(self._num)
        return range(min(int(limit), self._num))

    # -- materialization -----------------------------------------------
    def __getitem__(self, cid: int) -> Client:
        return self.client(cid)

    def client(self, cid: int) -> Client:
        """Materialise (or fetch) one client, touching its LRU slot."""
        live = self._live
        c = live.get(cid)
        if c is not None:
            if not self.always_live:
                # dict preserves insertion order; re-inserting moves the
                # client to the most-recently-used end.
                del live[cid]
                live[cid] = c
            return c
        if self._client_fn is None:
            raise KeyError(f"client id {cid} out of range")
        if not 0 <= cid < self._num:
            raise KeyError(f"client id {cid} out of range")
        c = self._client_fn(cid)
        if c.client_id != cid:
            raise ValueError(
                f"client_fn({cid}) built a client with id {c.client_id}"
            )
        c.adopt_replica(self._replicas)
        for hook in self._materialize_hooks:
            hook(c)
        state = self._take_state(cid)
        if state is not None:
            c.restore_state(state)
            self.stats.restores += 1
        live[cid] = c
        self.stats.materializations += 1
        if len(live) > self.stats.peak_live:
            self.stats.peak_live = len(live)
            self.stats.peak_live_nbytes = max(
                self.stats.peak_live_nbytes, self.live_nbytes()
            )
        return c

    def _take_state(self, cid: int) -> dict | None:
        state = self._retained.pop(cid, None)
        if state is not None:
            return state
        if cid in self._spilled:
            # Read and decode *before* dropping the spill marker: a
            # failed read must leave the blob claimable, or the client
            # silently restarts from a fresh trajectory.
            blob = self._spill_path(cid).read_bytes()
            state = pickle.loads(unseal(blob))
            self._spilled.discard(cid)
            return state
        return None

    def _spill_path(self, cid: int) -> Path:
        return Path(self._policy.spill_dir) / f"client-{cid:08d}.blob"

    # -- eviction ------------------------------------------------------
    def release(self, cid: int) -> None:
        """Evict one client immediately (no-op when always-live or absent)."""
        if self.always_live:
            return
        c = self._live.pop(cid, None)
        if c is not None:
            self._evict(cid, c)

    def evict_to_cap(self) -> None:
        """Trim live clients to ``policy.max_live``, least-recent first."""
        if self.always_live:
            return
        live = self._live
        if live:
            # Clients gain weight after materialization (retained
            # deltas, compressor buffers), so re-sample the byte peak
            # at trim time, when the cohort is fully loaded.
            self.stats.peak_live_nbytes = max(
                self.stats.peak_live_nbytes, self.live_nbytes()
            )
        cap = self._policy.max_live
        while len(live) > cap:
            cid = next(iter(live))
            self._evict(cid, live.pop(cid))

    def _evict(self, cid: int, client: Client) -> None:
        state = client.extract_state()
        if self._policy.mode == "spill":
            path = self._spill_path(cid)
            os.makedirs(path.parent, exist_ok=True)
            blob = seal(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            self._spilled.add(cid)
            self.stats.spills += 1
        else:
            self._retained[cid] = state
        self.stats.evictions += 1

    # -- hooks ---------------------------------------------------------
    def on_materialize(self, hook: Callable[[Client], None]) -> None:
        """Run ``hook(client)`` on every fresh materialization.

        On the always-live path the hook is applied to every client
        immediately (in id order) and not stored — matching the eager
        attach loop it replaces.  Virtual populations store the hook;
        it must be picklable (e.g. a bound strategy method) so snapshot
        resume keeps re-attaching state.
        """
        if self.always_live:
            for cid in range(self._num):
                hook(self._live[cid])
            return
        self._materialize_hooks.append(hook)

    # -- metadata ------------------------------------------------------
    def note_seen(self, ids, round_index: int) -> None:
        """Stamp ``last_seen_round`` for a cohort of ids."""
        if len(ids):
            self.last_seen_round[np.asarray(ids, dtype=np.int64)] = round_index

    # -- accounting ----------------------------------------------------
    @property
    def live_count(self) -> int:
        """How many clients are materialised right now."""
        return len(self._live)

    def live_ids(self) -> Iterator[int]:
        """Ids of currently materialised clients, LRU order."""
        return iter(self._live)

    def live_nbytes(self) -> int:
        """Heavy bytes held for materialised clients (peak-RSS proxy):
        what each client owns, plus the scratch replicas counted once."""
        return sum(c.state_nbytes() for c in self._live.values()) + sum(
            r.nbytes() for r in self._replicas
        )

    def retained_nbytes(self) -> int:
        """Bytes of evicted cross-round state kept in RAM."""
        return sum(_state_nbytes(s) for s in self._retained.values())

    def descriptor_nbytes(self) -> int:
        """Bytes of the always-resident per-client metadata arrays."""
        return (
            self.scores.nbytes
            + self.last_upload_round.nbytes
            + self.last_seen_round.nbytes
        )

    # -- snapshots -----------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Derived id caches are rebuilt on demand, never snapshotted.
        state["_all_ids"] = None
        state["_all_ids_array"] = None
        if not self.always_live:
            # Snapshot cost is O(retained + live), never O(population):
            # live clients collapse to their extracted cross-round
            # state and re-materialise lazily after resume.
            retained = dict(state["_retained"])
            for cid, c in state["_live"].items():
                retained[cid] = c.extract_state()
            state["_retained"] = retained
            state["_live"] = {}
            # Scratch: rebuilt by the first client to re-materialise.
            state["_replicas"] = []
            state["_spilled"] = set(state["_spilled"]) - set(retained)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- construction helpers ------------------------------------------
    @classmethod
    def ensure(cls, clients) -> "ClientPopulation":
        """Wrap a ``list[Client]`` (compat) or pass a population through.

        The duck check (``is_population``) admits registry facades that
        are not subclasses — e.g. the socket transport's remote
        population, whose clients live in worker processes.
        """
        if isinstance(clients, cls) or getattr(clients, "is_population", False):
            return clients
        return cls(list(clients))


def _state_nbytes(state: dict) -> int:
    total = 0
    for value in state.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            total += _state_nbytes(value)
    return total
