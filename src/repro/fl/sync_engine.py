"""Synchronous FL engine — a barrier protocol on :class:`repro.sim.SimKernel`.

Implements the round structure of §III-A: every round the strategy
selects participants, each participant downloads the global model,
trains locally, and uploads its (possibly compressed) delta; the
server waits for all transfers, so the round takes
``max_i (download_i + compute_i + upload_i)`` seconds (Eq. 3).
Network loss, injected faults, and availability churn turn uploads
into *dropped* updates — the server aggregates whatever arrived.

All clocking, RNG streams, and transfer/compute accounting live in the
shared :class:`~repro.sim.SimKernel`; the engine emits the typed event
stream (:mod:`repro.sim.trace`) and reads its round records back from
the attached :class:`~repro.fl.metrics.MetricsReducer`, so metrics are
a pure reduction over the trace.

Resilience hooks (all off by default, preserving bit-identical
trajectories):

* ``chaos`` — a :class:`~repro.sim.FaultPlan`; crashed devices sit out
  rounds (and lose in-progress work when a crash lands mid-round),
  server outages stall round starts and reject arrivals, stale/
  duplicate effects delay uploads, and corruption damages payloads;
* ``config.downlink_retry`` / ``config.uplink_retry`` — per-leg
  :class:`~repro.sim.RetryPolicy` (default: the historical single
  attempt);
* ``config.validation`` — server-side screening with per-round
  ``rejected_uploads`` accounting and optional trimmed-mean fallback;
* ``snapshot_path`` — crash-safe run snapshots every
  ``snapshot_every`` rounds, resumable via :mod:`repro.fl.snapshot`
  with a bit-identical continuation.

The engine is strategy-agnostic: FedAvg and AdaFL run through exactly
the same loop, differing only in the :class:`~repro.fl.strategy.SyncStrategy`
hooks they implement.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fl.batched import train_clients_batched
from repro.fl.client import Client
from repro.fl.config import FederationConfig
from repro.fl.faults import FaultInjector
from repro.fl.metrics import MetricsReducer, RunResult
from repro.fl.population import ClientPopulation
from repro.fl.server import Server
from repro.fl.strategy import RoundContext, SyncStrategy
from repro.fl.validation import UpdateValidator, trimmed_mean, verify_frame
from repro.network.conditions import NetworkConditions
from repro.transport.base import PeerGone
from repro.sim import (
    AGGREGATED,
    DROPPED,
    EVALUATED,
    EventTrace,
    FaultPlan,
    HALTED,
    RetryPolicy,
    RUN_END,
    RUN_START,
    SELECTED,
    SimKernel,
)

__all__ = ["SyncEngine"]


class SyncEngine:
    """Runs a synchronous federated training session."""

    def __init__(
        self,
        server: Server,
        clients: "list[Client] | ClientPopulation",
        strategy: SyncStrategy,
        config: FederationConfig,
        network: NetworkConditions | None = None,
        faults: FaultInjector | None = None,
        device_flops: np.ndarray | None = None,
        churn=None,
        chaos: FaultPlan | None = None,
        trace: EventTrace | None = None,
        snapshot_path=None,
        snapshot_every: int | None = None,
        on_snapshot=None,
        transport=None,
    ):
        # A remote transport owns the client processes; its population
        # facade replaces any clients argument.  In-memory transports
        # (None or InMemoryTransport) keep the historical path exactly.
        self._transport = transport
        self._remote = bool(transport is not None and getattr(transport, "remote", False))
        if self._remote:
            if snapshot_path is not None:
                raise ValueError(
                    "snapshots are not supported over a remote transport "
                    "(worker-side client state is not reachable)"
                )
            self.clients = ClientPopulation.ensure(transport.population())
        else:
            if clients is None or not len(clients):
                raise ValueError("need at least one client")
            # The engine resolves every client through the population
            # registry; a plain list becomes the always-live compat wrapper.
            self.clients = ClientPopulation.ensure(clients)
        self.server = server
        self.strategy = strategy
        self.config = config
        self.faults = faults if faults is not None else FaultInjector()
        self._churn = churn
        self._chaos = chaos
        if chaos is not None:
            chaos.bind(config.seed, len(self.clients))
        self._validator = (
            UpdateValidator(config.validation) if config.validation is not None else None
        )
        self._dl_policy = config.downlink_retry or RetryPolicy.single()
        self._ul_policy = config.uplink_retry or RetryPolicy.single()
        self._kernel = SimKernel(
            seed=config.seed,
            num_clients=len(self.clients),
            network=network,
            device_flops=device_flops,
            trace=trace,
        )
        self.network = self._kernel.network
        self.device_flops = self._kernel.device_flops
        self._rng = self._kernel.rng
        self._trace = self._kernel.trace
        self._reducer = self._trace.add_sink(MetricsReducer())
        if transport is not None:
            # Reconnect jitter draws from the kernel's named streams
            # and drops surface on the engine's trace bus.
            transport.bind_kernel(self._kernel, self._trace)
        self.snapshot_path = snapshot_path
        self.snapshot_every = snapshot_every if snapshot_every is not None else 1
        self._on_snapshot = on_snapshot
        self._next_round = 0  # first round iter_rounds() will execute
        # Reused MultiClientTrainer instances, keyed by cohort+config
        # (see repro.fl.batched).  Session-local: deliberately excluded
        # from snapshot_state, a resumed engine rebuilds on first use.
        self._batched_cache: dict = {}
        # The trainer cache holds references into client models; when
        # the registry evicts a client those references go stale, so
        # the eviction watcher drops the affected cohorts.  Watchers
        # are transient — re-registered here on every (re)construction.
        self.clients.on_evict(self._on_client_evicted)

    def _on_client_evicted(self, cid: int) -> None:
        if self._batched_cache:
            dead = [k for k in self._batched_cache if cid in k[0]]
            for k in dead:
                del self._batched_cache[k]

    @property
    def sim_time_s(self) -> float:
        """Simulated seconds elapsed (the kernel clock)."""
        return self._kernel.now

    @property
    def trace(self) -> EventTrace:
        """The engine's telemetry bus (attach sinks before ``run``)."""
        return self._trace

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute ``config.num_rounds`` rounds and return the metrics."""
        result = self.new_result()
        for record in self.iter_rounds():
            result.records.append(record)
        return result

    def resume(self) -> RunResult:
        """Finish a snapshotted run; the result covers the *whole* run."""
        for _ in self.iter_rounds():
            pass
        return self._reducer.result()

    def new_result(self) -> RunResult:
        """An empty :class:`RunResult` wired for this engine."""
        return RunResult(
            method=self.strategy.name,
            num_clients=len(self.clients),
            model_bytes=self.strategy.encode_model(self.server).payload_nbytes,
        )

    def iter_rounds(self):
        """Yield one :class:`RoundRecord` per round as training progresses.

        Lets callers observe (or interleave work with) the federation
        round by round; ``run`` is a thin wrapper over this.  A resumed
        engine continues from its snapshotted round with no re-prepare
        and no fresh ``run_start`` event.
        """
        local_cfg = self.strategy.local_config(self.config.local)
        if self._next_round == 0:
            self.strategy.prepare(self.server, self.clients)
            self._trace.emit(
                RUN_START,
                self.sim_time_s,
                mode="sync",
                method=self.strategy.name,
                num_clients=len(self.clients),
                model_bytes=self.strategy.encode_model(self.server).payload_nbytes,
            )
        for round_index in range(self._next_round, self.config.num_rounds):
            record = self._run_round(round_index, local_cfg)
            if (round_index + 1) % self.config.eval_every == 0:
                accuracy, loss = self.server.evaluate()
                self._trace.emit(
                    EVALUATED, self.sim_time_s, accuracy=accuracy, loss=loss
                )
            self._next_round = round_index + 1
            if (
                self.snapshot_path is not None
                and (round_index + 1) % self.snapshot_every == 0
            ):
                self._write_snapshot()
            yield record
        self._trace.emit(RUN_END, self.sim_time_s, rounds=self.config.num_rounds)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _write_snapshot(self) -> None:
        from repro.fl.snapshot import save_snapshot

        save_snapshot(self, self.snapshot_path)
        if self._on_snapshot is not None:
            self._on_snapshot(self)

    def snapshot_state(self) -> dict:
        """Everything needed to rebuild this engine mid-run (pickle-safe)."""
        from repro.fl.snapshot import kernel_state

        return {
            "mode": "sync",
            "server": self.server,
            "clients": self.clients,
            "strategy": self.strategy,
            "config": self.config,
            "faults": self.faults,
            "chaos": self._chaos,
            "churn": self._churn,
            "network": self.network,
            "device_flops": self.device_flops,
            "validator": self._validator,
            "kernel": kernel_state(self._kernel),
            "trace_seq": self._trace._seq,
            "reducer": self._reducer,
            "extra": {"next_round": self._next_round},
        }

    def restore_extra(self, extra: dict) -> None:
        """Engine-specific state counterpart of ``snapshot_state``."""
        self._next_round = int(extra["next_round"])

    # ------------------------------------------------------------------
    def _retry_rng(self, cid: int, policy: RetryPolicy):
        """Jitter stream for retries; None keeps the schedule exact."""
        if policy.jitter_frac <= 0.0:
            return None
        return self._kernel.stream("retry", cid)

    def _drop_transport_crash(self, t: float, cid: int, exc: PeerGone) -> None:
        """Terminal drop: the owning worker process is unreachable."""
        self._trace.emit(
            DROPPED,
            t,
            cid,
            reason="crash",
            cause="transport",
            terminal=True,
            attempts=exc.attempts,
        )

    def _upload_result(self, client, delivered: bool, context) -> None:
        """ACK/NACK the strategy, tolerating a dead remote peer.

        A NACK triggers AdaFL's residual restore — a worker RPC for
        remote clients.  If the worker died in the meantime the
        restore is moot (its residual state is gone with it); the
        death itself surfaces as drops through the liveness sweep, so
        double-counting here would skew the taxonomy.
        """
        try:
            self.strategy.on_upload_result(client, delivered, context)
        except PeerGone:
            pass

    def _available_ids(self, round_index: int, t0: float, crash) -> list[int]:
        """Ids that can open this round (availability gates only).

        The fault-free fast path returns the registry's cached id list
        — O(1), never an O(population) Python loop; descriptor checks
        only run when churn/crash/fault models are actually attached.
        Either way the ids come back ascending, so a full-length list
        is exactly ``0..n-1`` — what lets ``SyncStrategy.select`` draw
        from ``all_ids_array()`` instead of converting this list.
        """
        if (
            self._churn is None
            and crash is None
            and self.faults.trivially_available
        ):
            return self.clients.all_ids()
        available = []
        for cid in self.clients.ids():
            if self._churn is not None and not self._churn.is_online(cid, t0):
                self._trace.emit(DROPPED, t0, cid, reason="offline", cause="churn")
                continue
            if crash is not None and crash.is_down(cid, t0):
                self._trace.emit(DROPPED, t0, cid, reason="offline", cause="crash")
                continue
            if not self.faults.available(cid, round_index):
                self._trace.emit(DROPPED, t0, cid, reason="offline", cause="fault")
                continue
            available.append(cid)
        return available

    def _run_round(self, round_index: int, local_cfg):
        chaos = self._chaos
        crash = chaos.crash if chaos is not None else None
        stale = chaos.stale if chaos is not None else None
        corruption = chaos.corruption if chaos is not None else None
        outage = chaos.outage if chaos is not None else None

        if outage is not None and outage.is_down(self.sim_time_s):
            # The server itself is dark: the round cannot open until it
            # is back.  No client work is dispatched in the meantime.
            resume = outage.next_up(self.sim_time_s)
            self._trace.emit(
                HALTED, self.sim_time_s, cause="server_down", until=resume
            )
            self._kernel.advance_to(resume)

        t0 = self.sim_time_s
        context = RoundContext(
            round_index=round_index,
            sim_time_s=t0,
            server=self.server,
            clients=self.clients,
            network=self.network,
            local_config=local_cfg,
            trace=self._trace,
            kernel=self._kernel,
        )
        available = self._available_ids(round_index, t0, crash)
        if self._remote:
            # Liveness sweep before selection: clients owned by dead
            # worker processes are unreachable this round (UNCOUNTED —
            # they were never selected, like churn offline).
            self._transport.heartbeat()
            down = self._transport.down_cids()
            if down:
                kept = []
                for cid in available:
                    if cid in down:
                        self._trace.emit(
                            DROPPED, t0, cid, reason="offline", cause="transport"
                        )
                    else:
                        kept.append(cid)
                available = kept
        while True:
            try:
                selected = self.strategy.select(available, self._rng, context)
                break
            except PeerGone as exc:
                # A worker died while the strategy probed its clients
                # (AdaFL's scoring touches every available client).
                # Terminal for the client, then re-select among
                # survivors — fault-path only, never under chaos=None.
                if exc.cid is not None:
                    self._trace.emit(
                        DROPPED,
                        t0,
                        exc.cid,
                        reason="crash",
                        cause="transport",
                        terminal=True,
                        attempts=exc.attempts,
                    )
                down = self._transport.down_cids()
                available = [cid for cid in available if cid not in down]
        self.clients.note_seen(selected, round_index)
        self._trace.emit(
            SELECTED, t0, round=round_index, clients=list(selected), available=available
        )

        delivered = []
        durations: list[float] = [0.0]
        deadline = self.config.round_deadline_s

        # Fused barrier-phase training: with no network model every
        # selected client is guaranteed to receive the broadcast and
        # train, so the whole cohort can run through the batched kernel
        # up front.  (With a network, downlink losses draw from the
        # shared kernel RNG inside the loop below, so pre-training
        # would have to guess which clients participate; the serial
        # path keeps the draw order exact.)  Compute-time accounting
        # stays per-client and the trace is unchanged.
        batched = None
        if (
            self.config.batched_compute
            and self.network is None
            and len(selected) > 1
            and not self._remote
        ):
            kwargs_by = {
                cid: self.strategy.client_train_kwargs(self.clients[cid])
                for cid in selected
            }
            batched = train_clients_batched(
                [self.clients[cid] for cid in selected],
                self.server.params,
                local_cfg,
                round_index=round_index,
                kwargs_by_cid=kwargs_by,
                cache=self._batched_cache,
            )
        elif self._remote and self.network is None and len(selected) > 1:
            # The remote analogue of batched compute: pipeline the
            # whole cohort's train requests so worker processes run in
            # parallel; the loop below consumes replies in the exact
            # serial order.  Only safe with no network model — with one,
            # downlink losses decide who trains, and pre-training a
            # client the in-memory run would skip advances its RNG and
            # forks the trajectory.
            kwargs_by = {
                cid: self.strategy.client_train_kwargs(self.clients[cid])
                for cid in selected
            }
            self._transport.prefetch_train(
                selected, self.server.params, round_index, kwargs_by
            )

        # One model-frame encode serves every participant this round;
        # the charged bytes stay the strategy's downlink size (frame
        # payload plus any side channel), the full framed length rides
        # in the event data.
        model_frame = self.strategy.encode_model(self.server)
        model_bytes = self.strategy.downlink_bytes(self.server)
        down_extra = {
            "codec": "none",
            "frame_len": len(model_frame) + (model_bytes - model_frame.payload_nbytes),
        }
        for cid in selected:
            client = self.clients[cid]

            # -- downlink (per-attempt charging, policy-driven retries) --
            attempt = 1
            down_s = 0.0  # elapsed downlink time relative to t0
            lost = False
            while True:
                down = self._kernel.downlink(
                    cid, model_bytes, t0 + down_s, extra=down_extra
                )
                down_s = down_s + down.duration_s
                if down.delivered:
                    break
                if self._dl_policy.exhausted(attempt):
                    # Client never received the round's model: it sits
                    # the round out (terminal drop).
                    data = (
                        {"terminal": True, "attempts": attempt}
                        if self._dl_policy.max_attempts > 1
                        else {}
                    )
                    self._trace.emit(
                        DROPPED, t0 + down_s, cid, reason="downlink_lost", **data
                    )
                    durations.append(down_s)
                    lost = True
                    break
                self._trace.emit(
                    DROPPED, t0 + down_s, cid, reason="downlink_lost", attempt=attempt
                )
                down_s = down_s + self._dl_policy.backoff_s(
                    attempt, down.duration_s, self._retry_rng(cid, self._dl_policy)
                )
                attempt += 1
            if lost:
                continue

            if batched is not None:
                update = batched[cid]
            else:
                kwargs = self.strategy.client_train_kwargs(client)
                try:
                    update = client.local_train(
                        self.server.params, local_cfg, round_index=round_index, **kwargs
                    )
                except PeerGone as exc:
                    self._drop_transport_crash(t0 + down_s, cid, exc)
                    durations.append(down_s)
                    continue
            compute_s = self._kernel.compute(cid, update.flops, t0 + down_s)

            if crash is not None:
                crash_t = crash.crash_in(cid, t0, t0 + down_s + compute_s)
                if crash_t is not None:
                    # The device died mid-round: its in-progress work is
                    # lost and it will rejoin once restarted.
                    restart = crash.next_up(cid, crash_t)
                    self._trace.emit(
                        DROPPED, crash_t, cid, reason="crash", until=restart
                    )
                    durations.append(crash_t - t0)
                    continue

            try:
                packet = self.strategy.process_upload(client, update, context)
            except PeerGone as exc:
                # The worker died between training and upload encoding
                # (compression is a worker-side RPC for remote clients).
                self._drop_transport_crash(t0 + down_s + compute_s, cid, exc)
                durations.append(down_s + compute_s)
                continue
            if self._validator is not None:
                self._validator.stamp(update)
            delta = packet.delta
            frame_bytes = packet.frame.to_bytes()
            up_bytes = packet.nbytes
            up_extra = {"codec": packet.frame_codec, "frame_len": packet.wire_nbytes}

            # -- uplink (policy-driven retries) --
            attempt = 1
            extra_s = 0.0  # failed attempts + backoff before the last try
            lost = False
            while True:
                up = self._kernel.uplink(
                    cid, up_bytes, t0 + down_s + compute_s + extra_s, extra=up_extra
                )
                if up.delivered or self._ul_policy.exhausted(attempt):
                    lost = not up.delivered
                    break
                self._trace.emit(
                    DROPPED,
                    t0 + down_s + compute_s + extra_s + up.duration_s,
                    cid,
                    reason="uplink_lost",
                    attempt=attempt,
                )
                extra_s = extra_s + up.duration_s + self._ul_policy.backoff_s(
                    attempt, up.duration_s, self._retry_rng(cid, self._ul_policy)
                )
                attempt += 1
            total_s = down_s + compute_s + up.duration_s + extra_s

            stale_dup = False
            if stale is not None and not lost:
                stale_delay, stale_dup = stale.upload_effects(cid)
                total_s += stale_delay

            if deadline is not None and total_s > deadline:
                # §III-A max-wait-time policy: the server closes the
                # round at the deadline and discards the late update.
                durations.append(deadline)
                self._trace.emit(DROPPED, t0 + deadline, cid, reason="deadline")
                self._upload_result(client, False, context)
                continue
            durations.append(total_s)

            if lost:
                data = (
                    {"terminal": True, "attempts": attempt}
                    if self._ul_policy.max_attempts > 1
                    else {}
                )
                self._trace.emit(
                    DROPPED, t0 + total_s, cid, reason="uplink_lost", **data
                )
                self._upload_result(client, False, context)
                continue
            if self.faults.upload_lost(cid, self._rng):
                self._trace.emit(DROPPED, t0 + total_s, cid, reason="fault")
                self._upload_result(client, False, context)
                continue
            if outage is not None and outage.is_down(t0 + total_s):
                # The update arrived while the server was unreachable.
                self._trace.emit(
                    DROPPED,
                    t0 + total_s,
                    cid,
                    reason="server_down",
                    until=outage.next_up(t0 + total_s),
                )
                self._upload_result(client, False, context)
                continue
            self._upload_result(client, True, context)

            if corruption is not None:
                delta, tampered = corruption.corrupt_upload(cid, delta, frame_bytes)
                if tampered is not None:
                    frame_bytes = tampered
            # Server receipt: the frame's CRC-32 is checked before the
            # payload is trusted — a bit flipped in flight surfaces here
            # as a ``corrupt_frame`` rejection, never as silent noise.
            frame_reason = verify_frame(frame_bytes)
            if frame_reason is not None:
                self._trace.emit(DROPPED, t0 + total_s, cid, reason=frame_reason)
                continue
            update.delta = delta  # server sees the decompressed delta
            if packet.subspace is not None:
                # Masked aggregation needs to know which coordinates the
                # delta actually covers (sub-model uploads).
                update.extras["subspace"] = packet.subspace
            delivered.append(update)
            if stale_dup:
                # The transport delivered the same upload twice; the
                # duplicate shares the original's serial stamp.
                delivered.append(update)

        # Synchronous barrier: the round lasts as long as its slowest
        # participant (Eq. 3), capped by the server's deadline if set.
        round_time = max(durations)
        if deadline is not None:
            round_time = min(round_time, deadline)
        t_close = t0 + round_time

        # Quorum gate: a round that lost too many participants (worker
        # crashes, partitions) is voided rather than aggregated from a
        # skewed sliver of the cohort.
        quorum_missed = False
        if self.config.quorum_frac is not None and selected:
            needed = max(1, math.ceil(self.config.quorum_frac * len(selected)))
            if len({u.client_id for u in delivered}) < needed:
                delivered = []
                quorum_missed = True

        if self._validator is None:
            accepted = delivered
            self.strategy.aggregate(self.server, delivered, context)
        else:
            accepted = self._aggregate_validated(delivered, context, t_close)

        self._kernel.advance_to(t_close)
        quorum_extra = {"quorum_missed": True} if quorum_missed else {}
        self._trace.emit(
            AGGREGATED,
            self.sim_time_s,
            round=round_index,
            participants=[u.client_id for u in accepted],
            **quorum_extra,
        )
        # Barrier closed: trim materialised clients back to the
        # retention cap (no-op on the always-live compat path).
        self.clients.evict_to_cap()
        return self._reducer.records[-1]

    # ------------------------------------------------------------------
    def _aggregate_validated(self, delivered, context, t_close):
        """Screen deliveries, aggregate survivors, report rejections.

        Fast path (deferred mode, nothing pre-rejected): aggregate
        optimistically, screen the single resulting model — one O(d)
        pass per round — and only on a hit hunt the culprits, roll the
        server back, and re-fold the survivors.
        """
        v = self._validator
        cfg = v.config
        accepted, rejected = [], []
        for u in delivered:
            reason = v.check_replay(u)
            if reason is None and cfg.per_update_screen:
                reason = v.screen(u.delta)
            if reason is None:
                accepted.append(u)
            else:
                rejected.append((u, reason))

        if not rejected and not cfg.per_update_screen and accepted:
            # ``apply_delta`` updates ``server.params`` in place, so the
            # pre-aggregation vector must be copied to roll back — one
            # O(d) copy per validated round, inside the <5% budget.
            before_params = self.server.params.copy()
            before_delta = self.server.global_delta
            before_version = self.server.version
            self.strategy.aggregate(self.server, accepted, context)
            if (
                self.server.version == before_version
                or not v.screen_aggregate(self.server.params)
            ):
                return accepted
            survivors, culprits = [], []
            for u in accepted:
                (culprits if v.screen(u.delta) else survivors).append(u)
            if not culprits:
                # The strategy went non-finite on clean inputs — an
                # optimisation blow-up, not a bad payload; keep it.
                return accepted
            self.server.params = before_params
            self.server.global_delta = before_delta
            self.server.version = before_version
            accepted = survivors
            rejected = [(u, "corrupt") for u in culprits]
        elif rejected and not cfg.per_update_screen and accepted:
            # Deferred mode with pre-rejections (replays): screen the
            # rest individually before folding them in.
            survivors = []
            for u in accepted:
                reason = v.screen(u.delta)
                if reason is None:
                    survivors.append(u)
                else:
                    rejected.append((u, reason))
            accepted = survivors

        for u, reason in rejected:
            self._trace.emit(DROPPED, t_close, u.client_id, reason=reason)
        if rejected and cfg.trimmed_mean_fallback and accepted:
            # Robust fallback: corruption slipped past at least one
            # screen this round, so distrust the survivors too.
            self.server.apply_delta(
                trimmed_mean([u.delta for u in accepted], cfg.trim_ratio)
            )
        else:
            self.strategy.aggregate(self.server, accepted, context)
        return accepted
