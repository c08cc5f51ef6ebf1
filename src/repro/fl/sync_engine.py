"""Synchronous FL engine — a barrier protocol on :class:`repro.sim.SimKernel`.

Implements the round structure of §III-A: every round the strategy
selects participants, each participant downloads the global model,
trains locally, and uploads its (possibly compressed) delta; the
server waits for all transfers, so the round takes
``max_i (download_i + compute_i + upload_i)`` seconds (Eq. 3).
Network loss and the run's fault plan turn uploads
into *dropped* updates — the server aggregates whatever arrived.

The per-client leg itself — session, downlink, train, encode, uplink,
snapshots and the resilience hooks riding on them — is
:class:`repro.fl.engine._EngineBase`, shared with the asynchronous
engine.  This module owns what makes the protocol a *barrier*: the
availability sweep and selection, cohort-wide fused training, the
order in which a finished upload meets its fate, the round deadline,
the quorum gate, and validated aggregation (``rejected_uploads``
accounting, optional trimmed-mean fallback).

The engine is strategy-agnostic: FedAvg and AdaFL run through exactly
the same loop, differing only in the :class:`~repro.fl.strategy.SyncStrategy`
hooks they implement.
"""

from __future__ import annotations

import math

from repro.fl.batched import train_clients_batched
from repro.fl.client import ClientUpdate
from repro.fl.engine import _EngineBase
from repro.fl.metrics import RunResult
from repro.fl.strategy import RoundContext
from repro.fl.validation import trimmed_mean, verify_frame
from repro.transport.base import PeerGone
from repro.sim import AGGREGATED, DROPPED, EVALUATED, HALTED, RUN_END, SELECTED
from repro.sim import RetryPolicy

__all__ = ["SyncEngine"]


class SyncEngine(_EngineBase):
    """Runs a synchronous federated training session.

    The constructor is the shared session's, with a
    :class:`~repro.fl.strategy.SyncStrategy` as ``strategy``.
    """

    mode = "sync"
    # The historical barrier behaviour: a client whose model broadcast
    # is lost sits the round out.
    default_downlink = RetryPolicy.single()
    fresh_extra = {"next_round": 0}  # first round iter_rounds() will execute

    def run(self) -> RunResult:
        """Execute the rounds still to run and return the metrics.

        On a snapshotted engine (``resume``) that finishes the run; the
        result covers the *whole* run either way.
        """
        for _ in self.iter_rounds():
            pass
        return self._reducer.result()

    resume = run

    def new_result(self) -> RunResult:
        """An empty :class:`RunResult` wired for this engine."""
        return RunResult(**self._run_header())

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
            self._emit_run_start()
        for round_index in range(self._next_round, self.config.num_rounds):
            record = self._run_round(round_index, local_cfg)
            if (round_index + 1) % self.config.eval_every == 0:
                accuracy, loss = self.server.evaluate()
                self._trace.emit(
                    EVALUATED, self.sim_time_s, accuracy=accuracy, loss=loss
                )
            self._next_round = round_index + 1
            due = (round_index + 1) % self.snapshot_every == 0
            if self.snapshot_path is not None and due:
                self._write_snapshot()
            yield record
        self._trace.emit(RUN_END, self.sim_time_s, rounds=self.config.num_rounds)

    # -- who takes part -------------------------------------------------
    def _available_ids(self, round_index: int, t0: float) -> list[int]:
        """Ids that can open this round (availability gates only).

        A plan with no availability model returns the registry's cached
        id list — O(1), never an O(population) Python loop.  Either way
        the ids come back ascending, so a full-length list is exactly
        ``0..n-1`` — what lets ``SyncStrategy.select`` draw from
        ``all_ids_array()`` instead of converting this list.
        """
        models = self._chaos.availability
        if not models:
            return self.clients.all_ids()
        available = []
        for cid in self.clients.ids():
            for model in models:
                if model.is_down(cid, t0, round_index):
                    self._trace.emit(
                        DROPPED, t0, cid, reason="offline", cause=model.cause
                    )
                    break
            else:
                available.append(cid)
        return available

    def _select_cohort(self, round_index: int, t0: float, context: RoundContext):
        """``(selected, available)`` for the round opening at ``t0``."""
        available = self._available_ids(round_index, t0)
        if self._remote:
            # Liveness sweep before selection: clients owned by dead
            # worker processes are unreachable this round (UNCOUNTED —
            # they were never selected, like churn offline).
            self._transport.heartbeat()
            down = self._transport.down_cids()
            if down:
                for cid in available:
                    if cid in down:
                        self._trace.emit(
                            DROPPED, t0, cid, reason="offline", cause="transport"
                        )
                available = [cid for cid in available if cid not in down]
        while True:
            try:
                return self.strategy.select(available, self._rng, context), available
            except PeerGone as exc:
                # A worker died while the strategy probed its clients
                # (AdaFL's scoring touches every available client).
                # Terminal for the client, then re-select among
                # survivors — fault-path only, never under chaos=None.
                if exc.cid is not None:
                    self._drop_transport_crash(t0, exc.cid, exc)
                down = self._transport.down_cids()
                available = [cid for cid in available if cid not in down]

    def _train_cohort(self, selected: list[int], local_cfg, round_index: int):
        """Fused barrier-phase training; None leaves it to the serial legs.

        With no network model every selected client is guaranteed to
        receive the broadcast and train, so the whole cohort can run
        through the batched kernel up front.  (With one, downlink
        losses draw from the shared kernel RNG inside the legs, and
        pre-training a client the serial run would skip advances its
        RNG and forks the trajectory.)  Compute-time accounting stays
        per-client and the trace is unchanged.
        """
        fuse = self._remote or self.config.batched_compute
        if not fuse or self.network is not None or len(selected) <= 1:
            return None
        kwargs_by = {
            cid: self.strategy.client_train_kwargs(self.clients[cid])
            for cid in selected
        }
        if self._remote:
            # The remote analogue of batched compute: pipeline the
            # whole cohort's train requests so worker processes run in
            # parallel; the legs consume replies in exact serial order.
            self._transport.prefetch_train(
                selected, self.server.params, round_index, kwargs_by
            )
            return None
        return train_clients_batched(
            [self.clients[cid] for cid in selected], self.server.params, local_cfg,
            round_index=round_index, kwargs_by_cid=kwargs_by, cache=self._batched_cache,
        )

    # -- one round ------------------------------------------------------
    def _run_round(self, round_index: int, local_cfg):
        outage = self._chaos.outage
        if outage is not None and outage.is_down(self.sim_time_s):
            # The server itself is dark: the round cannot open until it
            # is back.  No client work is dispatched in the meantime.
            resume = outage.next_up(self.sim_time_s)
            self._trace.emit(HALTED, self.sim_time_s, cause="server_down", until=resume)
            self._kernel.advance_to(resume)

        t0 = self.sim_time_s
        context = RoundContext(
            round_index=round_index, sim_time_s=t0, server=self.server,
            clients=self.clients, network=self.network, local_config=local_cfg,
            trace=self._trace, kernel=self._kernel,
        )
        selected, available = self._select_cohort(round_index, t0, context)
        self.clients.note_seen(selected, round_index)
        self._trace.emit(
            SELECTED, t0, round=round_index, clients=list(selected), available=available
        )

        batched = self._train_cohort(selected, local_cfg, round_index)
        delivered: list[ClientUpdate] = []
        held = [self._client_leg(cid, context, batched, delivered) for cid in selected]

        # Synchronous barrier: the round lasts as long as its slowest
        # participant (Eq. 3), capped by the server's deadline if set.
        round_time = max([0.0] + held)
        if self.config.round_deadline_s is not None:
            round_time = min(round_time, self.config.round_deadline_s)
        t_close = t0 + round_time

        # Quorum gate: a round that lost too many participants (worker
        # crashes, partitions) is voided rather than aggregated from a
        # skewed sliver of the cohort.
        quorum_extra = {}
        if self.config.quorum_frac is not None and selected:
            needed = max(1, math.ceil(self.config.quorum_frac * len(selected)))
            if len({u.client_id for u in delivered}) < needed:
                delivered = []
                quorum_extra = {"quorum_missed": True}

        if self._validator is None:
            accepted = delivered
            self.strategy.aggregate(self.server, delivered, context)
        else:
            accepted = self._aggregate_validated(delivered, context, t_close)

        self._kernel.advance_to(t_close)
        joined = [u.client_id for u in accepted]
        self._trace.emit(
            AGGREGATED, t_close, round=round_index, participants=joined, **quorum_extra
        )
        # Barrier closed: trim materialised clients back to the
        # retention cap (no-op on the always-live compat path).
        self.clients.evict_to_cap()
        return self._reducer.records[-1]

    def _client_leg(self, cid: int, context: RoundContext, batched, delivered) -> float:
        """Run one participant's leg; returns how long it held the barrier.

        Appends the update to ``delivered`` (twice for a duplicated
        delivery) once the server has received and verified it.  Every
        duration below is relative to the round's opening instant.
        """
        t0 = context.sim_time_s
        client = self.clients[cid]
        chaos = self._chaos

        # A client that never receives the round's model sits it out.
        attempt = 1
        received, down_s, backoff_s = self._downlink_attempt(cid, t0)
        while not received:
            if backoff_s is None:
                return down_s
            attempt += 1
            received, down_s, backoff_s = self._downlink_attempt(
                cid, t0, down_s + backoff_s, attempt
            )

        if batched is not None:
            update = batched[cid]
        else:
            kwargs = self.strategy.client_train_kwargs(client)
            update = self._train_one(
                client, context.local_config, context.round_index, t0 + down_s, **kwargs
            )
            if update is None:
                return down_s

        enc = self._encode_upload(client, update, t0, t0 + down_s, context)
        if enc.crashed_at is not None:
            return enc.crashed_at - t0
        packet, compute_s = enc.packet, enc.compute_s
        if packet is None:
            return down_s + compute_s
        sent, tries, up_s, extra_s = self._uplink(cid, packet, t0 + down_s + compute_s)
        total_s = down_s + compute_s + up_s + extra_s

        # The upload's fate, in barrier order: stale -> deadline ->
        # lost -> fault -> outage -> ACK -> corrupt -> verify.
        stale_dup = False
        if chaos.stale is not None and sent:
            stale_delay, stale_dup = chaos.stale.upload_effects(cid)
            total_s += stale_delay

        deadline = self.config.round_deadline_s
        if deadline is not None and total_s > deadline:
            # §III-A max-wait-time policy: the server closes the
            # round at the deadline and discards the late update.
            self._trace.emit(DROPPED, t0 + deadline, cid, reason="deadline")
            self._upload_result(client, False, context)
            return deadline

        arrival = t0 + total_s
        loss, outage = chaos.upload_loss, chaos.outage
        if not sent:
            self._drop_uplink_lost(arrival, cid, tries)
        elif loss is not None and loss.lost(cid, self._rng):
            sent = False
            self._trace.emit(DROPPED, arrival, cid, reason="fault")
        elif outage is not None and outage.is_down(arrival):
            # The update arrived while the server was unreachable.
            sent = False
            until = outage.next_up(arrival)
            self._trace.emit(DROPPED, arrival, cid, reason="server_down", until=until)
        self._upload_result(client, sent, context)
        if not sent:
            return total_s

        delta, frame_bytes = self._tamper(cid, packet.delta, enc.frame_bytes)
        # Server receipt: the frame's CRC-32 is checked before the
        # payload is trusted — a bit flipped in flight surfaces here as
        # a ``corrupt_frame`` rejection, never as silent noise.
        frame_reason = verify_frame(frame_bytes)
        if frame_reason is not None:
            self._trace.emit(DROPPED, arrival, cid, reason=frame_reason)
            return total_s
        update.delta = delta  # the packet's view, or a corruption fault's copy
        # A duplicated delivery (the transport delivered the same upload
        # twice) shares the original's serial stamp.
        delivered.extend([update] * (2 if stale_dup else 1))
        return total_s

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
            self.server.restore(before_params, before_delta, before_version)
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
