"""The client-leg pipeline both FL engines drive.

§III-A defines the synchronous and asynchronous protocols as the
*same* per-client loop — download, local train, upload — differing
only in when the server folds arrivals in (Eq. 3's barrier vs Eq. 5's
per-arrival step).  :class:`_EngineBase` owns that loop once:

* the **session** — population resolution (in memory or behind a
  remote transport), fault-plan binding, validator, retry
  policies, kernel + trace bus + metrics reducer, the batched-trainer
  cache, and crash-safe snapshots;
* the **leg primitives** — ``_downlink_attempt``, ``_train_one``,
  ``_encode_upload``, ``_uplink``.  Each makes its kernel calls, emits
  its own ``DROPPED`` events and returns a small outcome; the engine
  only decides what to *schedule* next (sync: a duration for the
  barrier; async: the next queue event).

The engines keep scheduling and nothing else — including the
post-uplink fate order, the fused-cohort training call and the
server-receipt CRC check, which look shareable but *are* the
scheduling difference (docs/architecture.md says why).

Resilience hooks (all off by default, preserving bit-identical
trajectories): ``chaos``, a :class:`~repro.sim.FaultPlan` — churned,
crashed or dropped-out devices sit out, crashed ones lose in-progress
work, server outages stall dispatch and reject arrivals, uploads are
lost, delayed or duplicated in transit, corruption damages payloads;
``config.downlink_retry`` / ``config.uplink_retry``,
per-leg :class:`~repro.sim.RetryPolicy` schedules (uplinks default to
one attempt, each engine names its ``default_downlink``) whose
exhaustion is a *terminal* drop; ``config.validation``, server-side
screening of every delivered update; ``snapshot_path``, crash-safe
snapshots resumable bit-identically via :mod:`repro.fl.snapshot`.

All times keep the engines' historical floating-point association
(leg-relative accumulation, added once to the leg's start): that is
what keeps the pinned traces bit-identical.
"""

from __future__ import annotations

from copy import copy
from typing import NamedTuple

import numpy as np

from repro.compression.base import densify
from repro.fl.client import Client, ClientUpdate
from repro.fl.config import FederationConfig
from repro.fl.metrics import MetricsReducer
from repro.fl.population import ClientPopulation
from repro.fl.server import Server
from repro.fl.snapshot import kernel_state, save_snapshot
from repro.fl.strategy import UploadPacket
from repro.fl.validation import UpdateValidator
from repro.network.conditions import NetworkConditions
from repro.sim import DROPPED, RUN_START, EventTrace, FaultPlan, RetryPolicy, SimKernel
from repro.transport.base import PeerGone

__all__ = []  # everything here is private to the two engine modules


class _Encoded(NamedTuple):
    """Training-time accounting plus the encoded upload.

    ``packet is None``: the leg ended here with its drop traced — a
    mid-training crash (``crashed_at``/``restart_at`` set) or a dead
    worker process (both None).
    """

    compute_s: float
    packet: UploadPacket | None = None
    frame_bytes: bytes | None = None
    crashed_at: float | None = None
    restart_at: float | None = None


class _EngineBase:
    """Session state and leg primitives shared by both engines."""

    mode: str  # "sync" | "async": the run header and snapshot tag
    # Downlink schedule when ``config.downlink_retry`` is None.
    default_downlink: RetryPolicy
    # Scheduler state before a run: each ``"x": value`` lives in
    # ``self._x`` and rides in snapshots as ``extra["x"]``.
    fresh_extra: dict

    def __init__(
        self,
        server: Server,
        clients: "list[Client] | ClientPopulation",
        strategy,
        config: FederationConfig,
        network: NetworkConditions | None = None,
        device_flops: np.ndarray | None = None,
        chaos: FaultPlan | None = None,
        trace: EventTrace | None = None,
        snapshot_path=None,
        snapshot_every: int | None = None,
        on_snapshot=None,
        transport=None,
    ):
        # A remote transport owns the client processes; its population
        # facade replaces any clients argument.  Without one
        # (transport=None) the historical in-memory path runs exactly.
        self._transport = transport
        self._remote = bool(getattr(transport, "remote", False))
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
        # Always a plan (an empty one has no model of any kind), so no
        # caller distinguishes "no chaos" from "no such fault".
        self._chaos = chaos if chaos is not None else FaultPlan()
        self._chaos.bind(config.seed, len(self.clients))
        self._validator = (
            UpdateValidator(config.validation) if config.validation is not None else None
        )
        self._dl_policy = config.downlink_retry or self.default_downlink
        self._ul_policy = config.uplink_retry or RetryPolicy.single()
        # An engine whose default schedule retries has always labelled
        # downlink exhaustion terminal; one whose default is the legacy
        # single attempt labels it only once retries are configured.
        self._dl_marks_terminal = (
            self.default_downlink.max_attempts > 1 or self._dl_policy.max_attempts > 1
        )
        self._kernel = SimKernel(
            seed=config.seed, num_clients=len(self.clients), network=network,
            device_flops=device_flops, trace=trace,
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
        # Reused MultiClientTrainer instances, keyed by architecture,
        # cohort size and config (see repro.fl.batched) — never by who
        # is in the cohort, so the cache is bounded by the distinct
        # cohort sizes and holds no reference to any client.
        # Session-local: deliberately excluded from snapshot_state, a
        # resumed engine rebuilds on first use.
        self._batched_cache: dict = {}
        self.restore_extra(self.fresh_extra)

    @property
    def sim_time_s(self) -> float:
        """Simulated seconds elapsed (the kernel clock)."""
        return self._kernel.now

    @property
    def trace(self) -> EventTrace:
        """The engine's telemetry bus (attach sinks before ``run``)."""
        return self._trace

    def _run_header(self) -> dict:
        """What identifies the run: the ``RunResult`` / ``run_start`` fields."""
        return {
            "method": self.strategy.name,
            "num_clients": len(self.clients),
            "model_bytes": self.strategy.encode_model(self.server).payload_nbytes,
        }

    def _emit_run_start(self) -> None:
        header = self._run_header()
        self._trace.emit(RUN_START, self._kernel.now, mode=self.mode, **header)

    # -- snapshots ------------------------------------------------------
    def _write_snapshot(self) -> None:
        save_snapshot(self, self.snapshot_path)
        if self._on_snapshot is not None:
            self._on_snapshot(self)

    def snapshot_state(self) -> dict:
        """Everything needed to rebuild this engine mid-run (pickle-safe)."""
        return {
            "mode": self.mode,
            "server": self.server,
            "clients": self.clients,
            "strategy": self.strategy,
            "config": self.config,
            "chaos": self._chaos,
            "network": self.network,
            "device_flops": self.device_flops,
            "validator": self._validator,
            "kernel": kernel_state(self._kernel),
            "trace_seq": self._trace._seq,
            "reducer": self._reducer,
            "extra": {k: copy(getattr(self, "_" + k)) for k in self.fresh_extra},
        }

    def restore_extra(self, extra: dict) -> None:
        """Scheduler-state counterpart of ``snapshot_state``."""
        for k in self.fresh_extra:
            setattr(self, "_" + k, copy(extra[k]))

    # -- drops and feedback shared by every leg -------------------------
    def _retry_rng(self, cid: int, policy: RetryPolicy):
        """Jitter stream for retries; None keeps the schedule exact."""
        if policy.jitter_frac <= 0.0:
            return None
        return self._kernel.stream("retry", cid)

    def _drop_transport_crash(self, t: float, cid: int, exc: PeerGone) -> None:
        """Terminal drop: the owning worker process is unreachable —
        no restart event will ever revive the client."""
        self._trace.emit(
            DROPPED, t, cid, reason="crash", cause="transport", terminal=True,
            attempts=exc.attempts,
        )

    def _drop_uplink_lost(self, t: float, cid: int, attempts: int) -> None:
        """The upload's last allowed attempt was lost in transit."""
        retried = self._ul_policy.max_attempts > 1
        data = {"terminal": True, "attempts": attempts} if retried else {}
        self._trace.emit(DROPPED, t, cid, reason="uplink_lost", **data)

    def _upload_result(self, client: Client, delivered: bool, context) -> None:
        """ACK/NACK the strategy, tolerating a dead remote peer.

        A NACK triggers AdaFL's residual restore — a worker RPC for
        remote clients.  If the worker died in the meantime the
        restore is moot (its residual state is gone with it); the
        death itself surfaces as drops through the engines' liveness
        gates, so double-counting here would skew the taxonomy.
        """
        try:
            self.strategy.on_upload_result(client, delivered, context)
        except PeerGone:
            pass

    def _tamper(self, cid: int, delta, frame_bytes: bytes):
        """``(delta, frame_bytes)`` as the server receives them: the
        fault plan's payload corruption of one in-flight upload.  Only
        an upload the model damages as a vector is densified."""
        if self._chaos.corruption is not None:
            delta, tampered = self._chaos.corruption.corrupt_upload(
                cid, delta, frame_bytes, densify
            )
            frame_bytes = frame_bytes if tampered is None else tampered
        return delta, frame_bytes

    # -- leg primitives -------------------------------------------------
    def _downlink_attempt(
        self, cid: int, start_t: float, elapsed_s: float = 0.0, attempt: int = 1
    ) -> tuple[bool, float, float | None]:
        """One model broadcast, ``elapsed_s`` into a leg begun at ``start_t``.

        Returns ``(delivered, elapsed_s, backoff_s)``: the leg-relative
        time at which the attempt ended, and the wait before the next
        try — None when there is none (delivered, or out of attempts
        with the terminal drop traced).  One model-frame encode serves
        every downlink of a server version (the strategy caches it);
        the charged bytes stay the strategy's downlink size (frame
        payload plus any side channel), the full framed length rides in
        the event data.  Every attempt re-rolls the link and is charged
        its own bytes by the kernel.
        """
        frame = self.strategy.encode_model(self.server)
        nbytes = self.strategy.downlink_bytes(self.server)
        frame_len = len(frame) + (nbytes - frame.payload_nbytes)
        leg = self._kernel.downlink(
            cid, nbytes, start_t + elapsed_s,
            extra={"codec": "none", "frame_len": frame_len},
        )
        elapsed_s = elapsed_s + leg.duration_s
        if leg.delivered:
            return True, elapsed_s, None
        policy = self._dl_policy
        if policy.exhausted(attempt):
            # The client never receives this model (terminal drop).
            marked = self._dl_marks_terminal
            data = {"terminal": True, "attempts": attempt} if marked else {}
            backoff_s = None
        else:
            data = {"attempt": attempt}
            backoff_s = policy.backoff_s(
                attempt, leg.duration_s, self._retry_rng(cid, policy)
            )
        self._trace.emit(
            DROPPED, start_t + elapsed_s, cid, reason="downlink_lost", **data
        )
        return False, elapsed_s, backoff_s

    def _train_one(
        self, client: Client, local_cfg, round_index: int, t: float, **kwargs
    ) -> ClientUpdate | None:
        """Serial local training; None if the client's worker died at ``t``."""
        try:
            return client.local_train(
                self.server.params, local_cfg, round_index=round_index, **kwargs
            )
        except PeerGone as exc:
            self._drop_transport_crash(t, client.client_id, exc)
            return None

    def _encode_upload(
        self, client: Client, update: ClientUpdate, leg_start: float,
        train_start: float, context=None,
    ) -> _Encoded:
        """Charge the training interval, then encode the upload.

        ``leg_start`` opens the window in which a device crash loses
        the work (sync: the round barrier; async: the model arrival).
        ``context`` is what the strategy's upload hooks take as their
        third argument: the sync ``RoundContext``, or None for the
        async strategies, which take the instant the upload is ready.

        A strategy that reads ``client.last_delta`` gets the training
        delta retained here, before the crash check: the work a crash
        destroys was still done, and the client's next score reads it.
        Once encoded, ``update.delta`` is the packet's delta, at wire
        width, in both engines.
        """
        cid = client.client_id
        if self.strategy.reads_last_delta:
            client.last_delta = update.delta
        compute_s = self._kernel.compute(cid, update.flops, train_start)
        ready = train_start + compute_s
        crash = self._chaos.crash
        crash_t = crash.crash_in(cid, leg_start, ready) if crash is not None else None
        if crash_t is not None:
            # The device died mid-leg: its in-progress work is lost and
            # it rejoins once restarted.
            restart = crash.next_up(cid, crash_t)
            self._trace.emit(DROPPED, crash_t, cid, reason="crash", until=restart)
            return _Encoded(compute_s, crashed_at=crash_t, restart_at=restart)
        try:
            packet = self.strategy.process_upload(
                client, update, ready if context is None else context
            )
        except PeerGone as exc:
            # The worker died between training and upload encoding
            # (compression is a worker-side RPC for remote clients).
            self._drop_transport_crash(ready, cid, exc)
            return _Encoded(compute_s)
        # From here on the update carries what the server folds, at
        # wire width; the float64 training delta is released here
        # (unless retained as ``last_delta``).
        update.delta = packet.delta
        if self._validator is not None:
            self._validator.stamp(update)
        if packet.subspace is not None:
            # Masked aggregation needs to know which coordinates the
            # delta actually covers (sub-model uploads).
            update.extras["subspace"] = packet.subspace
        return _Encoded(compute_s, packet, packet.frame.to_bytes())

    def _uplink(self, cid: int, packet: UploadPacket, start_t: float) -> tuple:
        """Upload with policy-driven retries (default: one attempt).

        Returns ``(delivered, attempts, duration_s, extra_s)``: the
        last attempt's transfer time, and the failed attempts plus
        backoff before it, accumulated relative to ``start_t``.  Each
        non-final loss is traced here; the final one is the caller's
        to place in its fate order.
        """
        policy = self._ul_policy
        nbytes = packet.nbytes
        extra = {"codec": packet.frame_codec, "frame_len": packet.wire_nbytes}
        attempt = 1
        extra_s = 0.0
        while True:
            leg = self._kernel.uplink(cid, nbytes, start_t + extra_s, extra=extra)
            if leg.delivered or policy.exhausted(attempt):
                return leg.delivered, attempt, leg.duration_s, extra_s
            t = start_t + extra_s + leg.duration_s
            self._trace.emit(DROPPED, t, cid, reason="uplink_lost", attempt=attempt)
            extra_s = extra_s + leg.duration_s + policy.backoff_s(
                attempt, leg.duration_s, self._retry_rng(cid, policy)
            )
            attempt += 1
