"""Asynchronous FL engine — a reactive protocol on :class:`repro.sim.SimKernel`.

Implements the asynchronous protocol of §III-A: every client loops
``download -> local train -> upload`` independently; the server reacts
to each arriving update (FedAsync applies it immediately with a
staleness-discounted weight, FedBuff buffers ``K`` of them).  Client
heterogeneity — the 3x-slower stragglers of the empirical study — is
expressed through per-client compute rates, and all transfer times
come from the per-client :class:`~repro.network.conditions.ClientNetwork`.

The engine's main loop drains the kernel's event queue up to the
simulation horizon; the fault plan's availability models defer work
while a device is offline or crashed and park a dropped-out one until
the next model version, and its upload-loss model destroys delivered
uploads in transit.  Every
occurrence is published on the trace bus, and results are read back
from the attached :class:`~repro.fl.metrics.MetricsReducer`.

The per-client leg itself — session, downlink, train, encode, uplink,
snapshots and the resilience hooks riding on them — is
:class:`repro.fl.engine._EngineBase`, shared with the synchronous
engine.  This module owns what makes the protocol *reactive*: the
event loop, admission gating and halting, the order in which a
finished upload meets its fate, and the per-arrival server step.

Staleness is measured in server model versions: an update trained from
version ``v`` arriving when the server is at ``V`` has staleness
``V - v``, exactly the quantity Eq. 4/5 gate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.batched import train_clients_batched
from repro.fl.client import Client, ClientUpdate
from repro.fl.engine import _EngineBase
from repro.fl.metrics import RunResult
from repro.fl.validation import verify_frame
from repro.sim import AGGREGATED, DROPPED, EVALUATED, HALTED, RUN_END, WOKEN
from repro.sim import RetryPolicy

__all__ = ["AsyncEngine", "DOWNLINK_RETRY_BACKOFF"]

# After a lost model broadcast the client backs off for this fraction
# of the failed attempt's duration before re-requesting, so the retry
# lands at ``(1 + backoff) * duration`` after the original dispatch.
# Each retry re-rolls the link and is charged its own bytes.
DOWNLINK_RETRY_BACKOFF = 1.0

_MODEL_ARRIVAL = "model_arrival"
_MODEL_RETRY = "model_retry"
_UPDATE_ARRIVAL = "update_arrival"


@dataclass
class _InFlight:
    """An upload travelling to the server."""

    update: ClientUpdate
    delta: np.ndarray
    num_bytes: int
    base_version: int
    frame_bytes: bytes


class AsyncEngine(_EngineBase):
    """Runs an asynchronous federated training session.

    The constructor is the shared session's, with an
    :class:`~repro.fl.strategy.AsyncStrategy` as ``strategy``.
    """

    mode = "async"
    # The historical downlink schedule as a policy: constant backoff,
    # one drop event per failed attempt — but capped, so a dead link
    # terminally drops the client instead of spinning it forever.
    default_downlink = RetryPolicy(
        max_attempts=8, backoff_frac=DOWNLINK_RETRY_BACKOFF, multiplier=1.0
    )
    fresh_extra = {"halted": [], "total_updates": 0, "last_snapshot_at": -1}

    def run(self) -> RunResult:
        """Simulate until ``max_sim_time_s`` (or ``max_updates``) and report.

        On a snapshotted engine (``resume``) that finishes the run; the
        result covers the *whole* run either way.
        """
        local_cfg = self.strategy.local_config(self.config.local)
        if self._total_updates == 0:  # snapshots are only written after an update
            self.strategy.prepare(self.server, self.clients)
            self._emit_run_start()
            # Boot the reactive loop: every client (or the capped
            # cohort at population scale) receives the initial model.
            for cid in self.clients.initial_ids(self.config.async_cohort):
                self._dispatch_model(cid)

        horizon = self.config.max_sim_time_s
        # A snapshot can land exactly at the update budget (the run
        # finished right after writing it); resuming such a run must
        # not process the still-queued in-flight arrivals.
        done = self._budget_spent()
        while not done:
            for event in self._kernel.queue.drain_until(horizon):
                if event.kind == _MODEL_ARRIVAL:
                    payloads = [event.payload]
                    if self.config.batched_compute:
                        # Opportunistic fusion: arrivals landing at the
                        # exact same instant are simultaneously-ready
                        # clients; pull them off the queue and train
                        # them through the batched kernel together.
                        queue = self._kernel.queue
                        while (
                            queue
                            and queue.peek().time == event.time
                            and queue.peek().kind == _MODEL_ARRIVAL
                        ):
                            payloads.append(queue.pop().payload)
                    self._on_model_arrivals(payloads, local_cfg)
                elif event.kind == _MODEL_RETRY:
                    self._dispatch_model(**event.payload)
                elif event.kind == _UPDATE_ARRIVAL:
                    self._on_update_arrival(event.payload)
                    if (
                        self.snapshot_path is not None
                        and self._total_updates > 0
                        and self._total_updates % self.snapshot_every == 0
                        and self._total_updates != self._last_snapshot_at
                    ):
                        self._write_snapshot()
                        self._last_snapshot_at = self._total_updates
                    if self._budget_spent():
                        done = True
                        break
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown event kind {event.kind!r}")
            else:
                # Drained: either the queue is empty, or its head lies
                # beyond the simulation horizon.
                if self._kernel.queue:
                    break
                if self._halted and self._kernel.now <= horizon:
                    # Every in-flight client has halted: without a
                    # fresh update no global version change will ever
                    # wake them.  Force-train the longest-waiting one
                    # so the federation keeps making progress.
                    cid = self._halted.pop(0)
                    self._trace.emit(WOKEN, self._kernel.now, cid, cause="forced")
                    self._dispatch_model(cid, forced=True)
                    continue
                break

        self._trace.emit(RUN_END, self._kernel.now, updates=self._total_updates)
        return self._reducer.result()

    resume = run

    def _budget_spent(self) -> bool:
        budget = self.config.max_updates
        return budget is not None and self._total_updates >= budget

    def _dispatch_model(self, cid: int, forced: bool = False, attempt: int = 1) -> None:
        """Send the current global model to a client."""
        now = self._kernel.now
        outage = self._chaos.outage
        if outage is not None and outage.is_down(now):
            # The server cannot broadcast while it is dark; the client
            # re-requests as soon as it comes back.
            resume = outage.next_up(now)
            self._trace.emit(HALTED, now, cid, cause="server_down", until=resume)
            self._retry_dispatch(resume, cid, forced, attempt)
            return
        received, down_s, backoff_s = self._downlink_attempt(cid, now, attempt=attempt)
        if received:
            payload = {"cid": cid, "forced": forced}
            self._kernel.queue.push(now + down_s, _MODEL_ARRIVAL, payload)
        elif backoff_s is not None:
            # Lost broadcast: back off, then retry from scratch.  Out
            # of attempts (no backoff) the client sits the rest of the
            # run out.
            self._retry_dispatch(now + down_s + backoff_s, cid, forced, attempt + 1)

    def _retry_dispatch(self, t: float, cid: int, forced=False, attempt=1) -> None:
        """Queue a fresh ``_dispatch_model`` for ``cid`` at ``t``."""
        self._kernel.queue.push(
            t, _MODEL_RETRY, {"cid": cid, "forced": forced, "attempt": attempt}
        )

    def _on_model_arrivals(self, payloads: list[dict], local_cfg) -> None:
        """Handle one or more same-instant model arrivals.

        Each payload is gated exactly as the serial handler gates it
        (availability models, strategy halts — all deterministic, no
        shared-RNG draws); the survivors train
        together through the batched kernel when the cohort allows it,
        then complete their upload legs in arrival order so every
        shared-RNG draw happens in the serial sequence.
        """
        trainees: list[Client] = []
        for payload in payloads:
            client = self._gate_model_arrival(payload)
            if client is not None:
                trainees.append(client)
        if not trainees:
            return
        batched = None
        ids = [c.client_id for c in trainees]
        if len(trainees) > 1 and len(set(ids)) == len(ids) and not self._remote:
            batched = train_clients_batched(
                trainees, self.server.params, local_cfg,
                round_index=self.server.version, cache=self._batched_cache,
            )
        elif self._remote and len(trainees) > 1:
            # Remote analogue of the opportunistic fusion: pipeline the
            # burst's train requests so the owning worker processes run
            # in parallel; replies are consumed in serial order below.
            version = self.server.version
            self._transport.prefetch_train(ids, self.server.params, version, {})
        for client in trainees:
            if batched is not None:
                update = batched[client.client_id]
            else:
                update = self._train_one(
                    client, local_cfg, self.server.version, self._kernel.now
                )
                if update is None:
                    continue
            self._finish_model_arrival(client, update)
        # The arrival burst is fully processed: trim materialised
        # clients back to the retention cap (no-op when always-live).
        self.clients.evict_to_cap()

    def _gate_model_arrival(self, payload: dict) -> Client | None:
        """Admission control for one model arrival.

        Returns the client if it should train now, None if the arrival
        was deferred (re-queued for when the device is back) or parked
        (until the next model version).  Deterministic: no draws from
        the shared kernel RNG.
        """
        cid = payload["cid"]
        client = self.clients[cid]
        now = self._kernel.now
        if self._remote and cid in self._transport.down_cids():
            # The owning worker process is dead; the model arrival is
            # undeliverable and the client sits the rest of the run out
            # (UNCOUNTED, like a device that never came online).
            self._trace.emit(DROPPED, now, cid, reason="offline", cause="transport")
            return None
        woken = payload.pop("woken", None)
        if woken is not None:
            self._trace.emit(WOKEN, now, cid, cause=woken)
        parked = None  # cause of a gate that parks rather than defers
        for model in self._chaos.availability:
            if not model.is_down(cid, now, self.server.version):
                continue
            resume = model.next_up(cid, now)
            if resume is None:
                # No instant of return (a dropout fault): park it until
                # the next global model version, like a strategy halt.
                parked = parked or model.cause
                continue
            # The device is offline or crashed right now: it picks the
            # work back up, with the model it already holds, once back.
            self._trace.emit(HALTED, now, cid, cause=model.cause, until=resume)
            payload["woken"] = model.woken
            self._kernel.queue.push(resume, _MODEL_ARRIVAL, payload)
            return None
        if payload["forced"]:
            parked = None  # the deadlock guard overrides both parking gates
        elif parked is None and not self.strategy.should_train(client, self.server, now):
            # AdaFL halting: park the client until the next global
            # model version (paper §V, Q3 — halted clients save the
            # training *and* communication cost).
            parked = "strategy"
        if parked is not None:
            self._trace.emit(HALTED, now, cid, cause=parked)
            client.halted = True
            self._halted.append(cid)
            return None
        client.halted = False
        self.clients.note_seen((cid,), self.server.version)
        return client

    def _finish_model_arrival(self, client: Client, update: ClientUpdate) -> None:
        """Post-training half of a model arrival: encode, upload, and
        schedule what the outcome calls for."""
        cid = client.client_id
        now = self._kernel.now
        chaos = self._chaos
        update.extras["base_params"] = self.server.params.copy()
        enc = self._encode_upload(client, update, now, now)
        if enc.packet is None:
            if enc.restart_at is not None:
                # Crash mid-training: the device refetches a fresh
                # model once it restarts.
                self._retry_dispatch(enc.restart_at, cid)
            return
        ready = now + enc.compute_s
        delivered, attempts, up_s, extra_s = self._uplink(cid, enc.packet, ready)
        arrival = ready + extra_s + up_s

        # The upload's fate, in reactive order: lost -> fault ->
        # ACK/NACK -> stale -> corrupt (verify happens on arrival).
        loss = chaos.upload_loss
        if not delivered:
            self._drop_uplink_lost(arrival, cid, attempts)
        elif loss is not None and loss.lost(cid, self._rng):
            # Data-loss fault: the update made it across the link but
            # is destroyed in transit.
            delivered = False
            self._trace.emit(DROPPED, arrival, cid, reason="fault")
        self._upload_result(client, delivered, ready)
        if not delivered:
            # Update lost in transit: client fetches a fresh model and
            # goes again (wasted compute, exactly as on real links).
            payload = {"cid": cid, "forced": False}
            self._kernel.queue.push(arrival, _MODEL_ARRIVAL, payload)
            return
        duplicate = False
        if chaos.stale is not None:
            extra_delay, duplicate = chaos.stale.upload_effects(cid)
            arrival += extra_delay
        delta, frame_bytes = self._tamper(cid, enc.packet.delta, enc.frame_bytes)
        nbytes, version = enc.packet.nbytes, update.round_index
        inflight = _InFlight(update, delta, nbytes, version, frame_bytes)
        # A duplicated delivery (the transport delivered the same upload
        # twice) shares the original's serial stamp, so the validator
        # (if any) refuses the copy on arrival.
        for _ in range(2 if duplicate else 1):
            self._kernel.queue.push(arrival, _UPDATE_ARRIVAL, inflight)

    def _on_update_arrival(self, payload: _InFlight) -> None:
        now = self._kernel.now
        cid = payload.update.client_id
        outage = self._chaos.outage
        if outage is not None and outage.is_down(now):
            # The update arrived at a dark server: it is lost, and the
            # client re-requests a model once the server returns.
            resume = outage.next_up(now)
            self._trace.emit(DROPPED, now, cid, reason="server_down", until=resume)
            self._retry_dispatch(resume, cid)
            return
        # Server receipt: the frame's CRC-32 is checked before the
        # payload is trusted — unconditionally, whatever the validation
        # config says (a damaged frame is never decodable).
        reason = verify_frame(payload.frame_bytes)
        staleness = max(0, self.server.version - payload.base_version)
        validator = self._validator
        if reason is None and validator is not None:
            if validator.check_replay(payload.update) is not None:
                # A duplicate delivery: refuse it and stop — the
                # original already triggered the client's next cycle.
                self._trace.emit(DROPPED, now, cid, reason="stale", duplicate=True)
                return
            reason = validator.check_staleness(staleness)
            reason = reason or validator.screen(payload.delta)
        if reason is not None:
            self._trace.emit(DROPPED, now, cid, reason=reason)
            self._dispatch_model(cid)
            return
        update, delta = payload.update, payload.delta
        changed = self.strategy.on_update(self.server, update, delta, staleness)
        self._total_updates += 1
        self._trace.emit(
            AGGREGATED, now, cid, update=self._total_updates - 1, staleness=staleness,
            applied=bool(changed), nbytes=payload.num_bytes,
        )
        if self._total_updates % self.config.eval_every == 0:
            accuracy, loss = self.server.evaluate()
            self._trace.emit(EVALUATED, now, accuracy=accuracy, loss=loss)

        # The uploading client immediately receives the latest model.
        self._dispatch_model(cid)
        # A model change wakes any halted clients (they were waiting
        # for "the next global update").
        if changed and self._halted:
            woken, self._halted = self._halted, []
            for wid in woken:
                self._trace.emit(WOKEN, now, wid, cause="version")
                self._dispatch_model(wid)
