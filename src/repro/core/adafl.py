"""AdaFL: the paper's adaptive federated-learning framework.

Two strategies implement the design of §IV on top of the engines in
:mod:`repro.fl`:

* :class:`AdaFLSync` — top-k client selection by utility score
  (Algorithm 1) plus per-client adaptive DGC compression, run under
  the synchronous engine;
* :class:`AdaFLAsync` — fully asynchronous variant: every arriving
  update is applied FedAsync-style, clients with utility below ``tau``
  *halt* until the next global model version (saving their training
  and upload entirely), and upload compression follows the utility
  score.

Scoring note: in a deployment each client computes its own utility
score (an O(d) dot product against the last global gradient — the
~0.05% overhead of §V Q3) and reports it in a few bytes.  The
simulation lets the server compute it from the client's local
direction — a fresh probe (sync), or the training delta the engine
retains for :class:`AdaFLAsync` (the only strategy with
``reads_last_delta``); the report is charged at ``SCORE_REPORT_BYTES``
per upload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.dgc import DGCCompressor, MagnitudeScratch
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.core.selection import SelectionResult, select_from_scores
from repro.core.utility import UtilityScorer
from repro.fl.client import Client, ClientUpdate
from repro.fl.baselines import FedAsync
from repro.fl.population import ClientPopulation
from repro.fl.server import Server
from repro.fl.strategy import (
    AsyncStrategy,
    RoundContext,
    SyncStrategy,
    UploadPacket,
    weighted_average,
)

__all__ = ["AdaFLConfig", "AdaFLSync", "AdaFLAsync", "SCORE_REPORT_BYTES"]

SCORE_REPORT_BYTES = 8  # one float64 utility score piggybacked per upload

# Fallback bandwidths when the run is configured without a network
# model: treated as a healthy symmetric link at the scorer's reference
# rate, so the bandwidth term saturates and selection is purely
# similarity-driven.
_DEFAULT_BW_MBPS = 100.0


@dataclass(frozen=True)
class AdaFLConfig:
    """Knobs shared by both AdaFL variants.

    ``tau_mode`` controls how the Algorithm-1 threshold is applied:

    * ``"absolute"`` — ``tau`` is the literal score threshold, exactly
      as Algorithm 1 states it.
    * ``"relative"`` — ``tau`` is a quantile of the current round's
      score distribution (e.g. 0.7 filters the lowest 70% of clients).
      Utility-score distributions shift as training converges, so a
      fixed absolute threshold either never binds or starves the
      federation; the relative mode keeps the *adaptive participation
      rate* behaviour the paper reports (r_p well below the baselines'
      0.5) robust across workloads.

    ``min_selected`` is a progress guarantee for absolute mode: if the
    threshold filters out every client, the top-``min_selected`` are
    selected anyway.  Without it the federation deadlocks — unselected
    clients never refresh the cached gradients their scores are
    computed from, so no score can ever rise back above ``tau``.

    Two optional stabilisers address the directional oscillation the
    paper's §IV discusses (cosine scores from minibatch gradients are
    noisy, and similarity-based selection self-reinforces under
    non-IID data):

    * ``score_smoothing`` — exponential moving average over each
      client's score (0 disables; 0.5 halves the noise);
    * ``rotation_bonus`` — a ranking bonus that grows linearly over
      ``rotation_horizon`` rounds since a client's last upload, so
      persistently unselected shards re-enter the federation instead
      of being starved.  The bonus affects ranking only; compression
      ratios still follow the raw utility.
    """

    k_max: int = 5
    tau: float = 0.5
    tau_mode: str = "absolute"
    min_selected: int = 1
    score_smoothing: float = 0.0
    rotation_bonus: float = 0.0
    rotation_horizon: int = 10
    scorer: UtilityScorer = field(default_factory=UtilityScorer)
    policy: AdaptiveCompressionPolicy = field(default_factory=AdaptiveCompressionPolicy)
    dgc_momentum: float = 0.9
    dgc_clip_norm: float | None = 5.0

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.tau_mode not in ("absolute", "relative"):
            raise ValueError("tau_mode must be 'absolute' or 'relative'")
        if self.min_selected < 0:
            raise ValueError("min_selected must be non-negative")
        if not 0.0 <= self.score_smoothing < 1.0:
            raise ValueError("score_smoothing must be in [0, 1)")
        if self.rotation_bonus < 0:
            raise ValueError("rotation_bonus must be non-negative")
        if self.rotation_horizon < 1:
            raise ValueError("rotation_horizon must be positive")


class _AdaFLBase:
    """Shared scoring and compression machinery.

    Utility scores and upload-round bookkeeping live in the client
    registry's preallocated metadata arrays once :meth:`_bind_population`
    has run (NaN / -1 are the "never scored / never uploaded"
    sentinels), so per-round work never builds an O(population) dict.
    Compressors are owned by the clients themselves and
    attached through a registry materialization hook — a bound method,
    so it survives snapshot pickling and keeps re-attaching state after
    resume — never by an eager loop over the full population.  They all
    borrow the strategy's one :class:`MagnitudeScratch`.
    """

    def __init__(self, config: AdaFLConfig):
        self.config = config
        self._in_flight: dict[int, object] = {}  # last un-ACKed payload per client
        self._pop: ClientPopulation | None = None
        self._dim = 0
        self._num_workers = 1

    def _bind_population(self, server: Server, clients) -> None:
        """One-time ``prepare`` body: adopt the registry, hook attach."""
        pop = ClientPopulation.ensure(clients)
        self._pop = pop
        self._dim = server.dim
        self._scratch = MagnitudeScratch(server.dim)
        self._num_workers = len(pop)
        pop.on_materialize(self._attach_compressor)

    def _attach_compressor(self, client: Client) -> None:
        """Materialization hook: give the client its DGC compressor.

        Runs eagerly over every client on the always-live compat path
        and per-materialization on virtual populations; restored
        eviction state is imported into the fresh compressor afterwards
        by :meth:`~repro.fl.client.Client.restore_state`.
        """
        client.compressor = DGCCompressor(
            dim=self._dim,
            momentum=self.config.dgc_momentum,
            clip_norm=self.config.dgc_clip_norm,
            num_workers=self._num_workers,
            scratch=self._scratch,
        )

    # -- score storage (registry metadata arrays) ----------------------
    def _prev_score(self, cid: int) -> float | None:
        value = float(self._pop.scores[cid])
        return None if np.isnan(value) else value

    def _store_score(self, cid: int, score: float) -> None:
        self._pop.scores[cid] = score

    def _note_upload(self, cid: int, round_index: int) -> None:
        self._pop.last_upload_round[cid] = round_index

    def _bandwidths(self, network, cid: int, t: float) -> tuple[float, float]:
        if network is None:
            return _DEFAULT_BW_MBPS, _DEFAULT_BW_MBPS
        endpoint = network[cid]
        return endpoint.downlink_bandwidth(t), endpoint.uplink_bandwidth(t)

    def _score_client(
        self,
        client: Client,
        server: Server,
        bw_down: float,
        bw_up: float,
        local: np.ndarray | None,
    ) -> float:
        """Score ``client`` from its local direction ``local`` (None: no
        direction known yet, the scorer's ``default_similarity``)."""
        score = self.config.scorer.score(bw_down, bw_up, local, server.global_delta)
        smoothing = self.config.score_smoothing
        if smoothing > 0.0:
            prev = self._prev_score(client.client_id)
            if prev is not None:
                score = smoothing * prev + (1.0 - smoothing) * score
        self._store_score(client.client_id, score)
        return score

    def _rotation_adjusted(self, cid: int, score: float, round_index: int) -> float:
        """Ranking score with the anti-starvation rotation bonus."""
        if self.config.rotation_bonus == 0.0:
            return score
        last = int(self._pop.last_upload_round[cid])
        waited = round_index if last < 0 else round_index - last
        fraction = min(1.0, waited / self.config.rotation_horizon)
        return score + self.config.rotation_bonus * fraction

    def _compress(
        self, client: Client, update: ClientUpdate, round_index: int, model_version: int
    ) -> UploadPacket:
        compressor = client.compressor
        if compressor is None:
            raise RuntimeError("AdaFL compressor missing — was prepare() run?")
        utility = self._prev_score(client.client_id)
        if utility is None:
            utility = 1.0
        ratio = self.config.policy.ratio_for(utility, round_index)
        payload = compressor.compress(update.delta, ratio=ratio)
        self._in_flight[client.client_id] = payload
        delta = compressor.decompress(payload)
        return UploadPacket(
            delta=delta,
            frame=payload.to_frame(model_version),
            extra_bytes=SCORE_REPORT_BYTES,
        )

    def _handle_upload_result(self, client: Client, delivered: bool) -> None:
        """ACK/NACK for the client's last compressed upload.

        A NACK returns the payload's values to the client's DGC
        residual, so accumulated gradient information survives lossy
        links instead of vanishing with the dropped transfer.
        """
        payload = self._in_flight.pop(client.client_id, None)
        if payload is None or delivered:
            return
        client.compressor.restore(payload)

    @property
    def last_scores(self) -> dict[int, float]:
        """Most recent utility scores (diagnostics / overhead study).

        Built on demand from the registry's score array — O(scored),
        not O(population), since unscored entries stay NaN.
        """
        scores = self._pop.scores
        return {int(cid): float(scores[cid]) for cid in np.flatnonzero(~np.isnan(scores))}


class AdaFLSync(SyncStrategy, _AdaFLBase):
    """Synchronous AdaFL: Algorithm 1 selection + adaptive DGC."""

    name = "adafl"

    def __init__(self, config: AdaFLConfig | None = None):
        SyncStrategy.__init__(self, participation_rate=1.0)
        _AdaFLBase.__init__(self, config or AdaFLConfig())
        self.last_selection: SelectionResult | None = None

    def prepare(self, server: Server, clients) -> None:
        self._bind_population(server, clients)

    def select(
        self,
        available: list[int],
        rng: np.random.Generator,
        context: RoundContext,
    ) -> list[int]:
        del rng  # selection is deterministic given scores
        if not available:
            return []
        # Warm-up: equal participation from all clients "to adapt
        # gradually to diverse data patterns" (§IV).
        if self.config.policy.in_warmup(context.round_index):
            self.last_selection = None
            return sorted(available)

        # Parallel ids/scores arrays in `available` order — no
        # O(population) dict.  Scoring materialises each available
        # client (the probe needs its model); AdaFL is therefore an
        # inherently probe-everyone design, and population-scale runs
        # bound `available` via faults/churn, not via this loop.
        ids = np.fromiter(available, dtype=np.int64, count=len(available))
        scores_arr = np.empty(ids.size, dtype=np.float64)
        for pos, cid in enumerate(available):
            client = context.clients[cid]
            # Paper §IV: on receiving the global model, every client
            # interrupts its local training to compute a utility score
            # from its *current* local gradient: a one-minibatch probe,
            # scored and dropped, so scores track the evolving global
            # model instead of freezing at each client's last
            # participation.  Without a local config there is no probe
            # and the score reads a delta the caller retained.
            if context.local_config is not None:
                local = client.probe_delta(context.server.params, context.local_config)
            else:
                local = client.last_delta
                if local is None:
                    raise RuntimeError(
                        f"client {cid} has no retained last_delta to score: "
                        "pass RoundContext.local_config to score from a probe"
                    )
            bw_down, bw_up = self._bandwidths(context.network, cid, context.sim_time_s)
            raw = self._score_client(client, context.server, bw_down, bw_up, local)
            scores_arr[pos] = self._rotation_adjusted(cid, raw, context.round_index)

        if self.config.tau_mode == "relative":
            tau = float(np.quantile(scores_arr, self.config.tau))
            tau = min(tau, 1.0)
        else:
            tau = self.config.tau
        result = select_from_scores(ids, scores_arr, k=self.config.k_max, tau=tau)
        self.last_selection = result
        if not result.selected and self.config.min_selected > 0:
            # Progress guarantee: an empty round would freeze every
            # cached gradient (and hence every score) forever.
            fallback = select_from_scores(
                ids, scores_arr, k=self.config.min_selected, tau=0.0
            )
            return sorted(fallback.selected)
        return sorted(result.selected)

    def process_upload(
        self, client: Client, update: ClientUpdate, context: RoundContext
    ) -> UploadPacket:
        self._note_upload(client.client_id, context.round_index)
        return self._compress(
            client, update, context.round_index, context.server.version
        )

    def on_upload_result(
        self, client: Client, delivered: bool, context: RoundContext
    ) -> None:
        self._handle_upload_result(client, delivered)

    def aggregate(
        self, server: Server, updates: list[ClientUpdate], context: RoundContext
    ) -> None:
        del context
        if not updates:
            return
        self.server_opt.step(server, weighted_average(updates))


class AdaFLAsync(AsyncStrategy, _AdaFLBase):
    """Fully asynchronous AdaFL with utility-gated halting."""

    name = "adafl-async"
    # Halting scores each arrival from the client's last training delta.
    reads_last_delta = True

    def __init__(
        self,
        config: AdaFLConfig | None = None,
        alpha: float = 0.6,
        poly_a: float = 0.5,
        network=None,
    ):
        AsyncStrategy.__init__(self)
        if config is None:
            # Table II reports the async compression span as 4x-105x.
            config = AdaFLConfig(
                policy=AdaptiveCompressionPolicy(min_ratio=4.0, max_ratio=105.0)
            )
        _AdaFLBase.__init__(self, config)
        self._mixer = FedAsync(alpha=alpha, poly_a=poly_a)
        self._network = network

    def prepare(self, server: Server, clients) -> None:
        self._bind_population(server, clients)

    def should_train(self, client: Client, server: Server, sim_time_s: float) -> bool:
        # Warm-up is measured in server versions for the async variant.
        if self.config.policy.in_warmup(server.version):
            self._store_score(client.client_id, 1.0)
            return True
        bw_down, bw_up = self._bandwidths(self._network, client.client_id, sim_time_s)
        score = self._score_client(client, server, bw_down, bw_up, client.last_delta)
        return score >= self.config.tau

    def process_upload(
        self, client: Client, update: ClientUpdate, sim_time_s: float
    ) -> UploadPacket:
        del sim_time_s
        return self._compress(
            client,
            update,
            update.round_index,
            update.extras.get("base_version", 0),
        )

    def on_upload_result(self, client: Client, delivered: bool, sim_time_s: float) -> None:
        self._handle_upload_result(client, delivered)

    def on_update(
        self,
        server: Server,
        update: ClientUpdate,
        delta: np.ndarray,
        staleness: int,
    ) -> bool:
        return self._mixer.on_update(server, update, delta, staleness)
