"""Client worker process: owns real clients, serves the server's RPCs.

Run as ``python -m repro.transport.worker --connect HOST:PORT``.  The
worker dials the server, handshakes, and receives a pickled
:class:`~repro.transport.base.WorkerSetup`; it then builds its own
replica of the federation (same builder, same spec, same seeds — so
client ``cid`` holds exactly the data shards and RNG state the
in-memory run would give it) and serves ``train`` / ``probe`` /
``compress`` / ``restore`` requests for the client ids the server
assigned it.

Robustness mechanics:

* a daemon thread heartbeats while connected, so the server's per-leg
  deadline measures *liveness*, not training speed — a worker mid-way
  through a slow local epoch never reads as dead;
* every reply is recorded in a :class:`~repro.transport.messages.ReplyCache`
  before it is sent; a request whose serial was already served (the
  server retrying across a reconnect) returns the cached reply without
  re-executing, so retries are exactly-once and client RNG streams
  never advance twice for one logical request;
* a lost connection triggers a fixed redial schedule
  (``reconnect_attempts`` x ``reconnect_wait_s`` — deterministic, no
  wall-clock entropy) with a resume hello carrying the worker id, so
  the server re-binds the same slot;
* an idle-exit timer reaps orphaned workers whose server died without
  a shutdown message.

This module never imports engine or experiment code statically —
everything above the transport arrives through the pickled setup
bundle, keeping the dependency arrow pointed downward.
"""

from __future__ import annotations

import argparse
import copy
import threading
import time
from typing import Any

from repro.transport.base import TransportError, TransportTimeout, WorkerSetup
from repro.transport.messages import (
    HEARTBEAT,
    ReplyCache,
    vector_from_frame_bytes,
    vector_to_frame_bytes,
)
from repro.transport.sockets import close_quietly, dial, recv_message, send_message
from repro.compression.base import CompressedGradient
from repro.wire.frame import MAX_PAYLOAD_NBYTES, Frame, FrameError

__all__ = ["Worker", "main"]


class Worker:
    """One worker process's lifecycle: connect, build, serve, redial."""

    def __init__(
        self,
        address: str,
        index: int | None = None,
        connect_timeout_s: float = 10.0,
        recv_poll_s: float = 5.0,
        idle_exit_s: float = 600.0,
        reconnect_attempts: int = 20,
        reconnect_wait_s: float = 0.25,
        max_payload_nbytes: int = MAX_PAYLOAD_NBYTES,
    ):
        self.address = address
        self.index = index
        self.connect_timeout_s = connect_timeout_s
        self.recv_poll_s = recv_poll_s
        self.idle_exit_s = idle_exit_s
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_wait_s = reconnect_wait_s
        self.max_payload_nbytes = max_payload_nbytes

        self.wid: int | None = None
        self.own: tuple[int, ...] = ()
        self._clients = None
        self._local_cfg = None
        self._replies = ReplyCache()
        self._sock = None
        self._send_lock = threading.Lock()
        self._connected = threading.Event()
        self._heartbeat_interval_s = 1.0
        self._stop = False

    # -- lifecycle -----------------------------------------------------
    def run(self) -> int:
        """Serve until shutdown (0), idle-exit (0), or redial exhaustion (1)."""
        # The initial handshake runs under the same redial schedule as
        # reconnects: a hello or welcome damaged in flight (chaos does
        # corrupt handshakes too) must not kill the worker outright.
        if not self._redial():
            return 1
        hb = threading.Thread(
            target=self._heartbeat_loop, name="repro-worker-heartbeat", daemon=True
        )
        hb.start()
        while not self._stop:
            try:
                self._serve()
            except (OSError, FrameError, TransportError):
                self._disconnect()
                if not self._redial():
                    return 1
        self._disconnect()
        return 0

    def _connect(self, resume: bool) -> None:
        sock = dial(self.address, self.connect_timeout_s)
        # Everything between the dial and the handoff to self._sock
        # can fail (chaos proxies corrupt handshakes on purpose);
        # without the close here every failed handshake leaks one fd —
        # a slow worker-killer under reconnect storms.
        try:
            hello: dict[str, Any] = {"op": "hello"}
            if resume:
                hello["wid"] = self.wid
            elif self.index is not None:
                hello["index"] = self.index
            send_message(sock, hello)
            welcome = recv_message(
                sock, self.connect_timeout_s, self.max_payload_nbytes
            )
            op = welcome.get("op")
            if not resume:
                if op != "welcome":
                    raise TransportError(f"expected welcome, got {op!r}")
                self.wid = int(welcome["wid"])
                self.own = tuple(welcome["own"])
                self._heartbeat_interval_s = float(
                    welcome.get("heartbeat_interval_s", 1.0)
                )
                self._build(WorkerSetup.from_bytes(welcome["setup"]))
            elif op != "welcome_back":
                raise TransportError(f"expected welcome_back, got {op!r}")
            sock.settimeout(None)
        except Exception:
            close_quietly(sock)
            raise
        self._sock = sock
        self._connected.set()

    def _build(self, setup: WorkerSetup) -> None:
        """Materialise this worker's replica of the federation.

        The builder is deterministic in the spec, so the clients built
        here are state-identical to the ones the in-memory engine
        would hold — same shards, same RNG seeds, same compressor
        residuals at round zero.
        """
        fed = setup.builder(setup.builder_arg)
        self._clients = fed.clients
        setup.strategy.prepare(fed.server, fed.clients)
        self._local_cfg = setup.strategy.local_config(setup.config.local)

    def _disconnect(self) -> None:
        self._connected.clear()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _redial(self) -> bool:
        """Dial under the fixed schedule; resume once a slot was won."""
        for attempt in range(self.reconnect_attempts):
            if attempt:
                time.sleep(self.reconnect_wait_s)
            try:
                self._connect(resume=self.wid is not None)
                return True
            except (OSError, FrameError, TransportError):
                self._disconnect()
        return False

    def _heartbeat_loop(self) -> None:
        while not self._stop:
            time.sleep(self._heartbeat_interval_s)
            if not self._connected.is_set():
                continue
            sock = self._sock
            if sock is None:
                continue
            try:
                send_message(sock, HEARTBEAT, self._send_lock)
            except OSError:
                # The serve loop sees the same dead socket and redials.
                continue

    # -- the serve loop ------------------------------------------------
    def _serve(self) -> None:
        idle_s = 0.0
        while not self._stop:
            sock = self._sock
            if sock is None:
                raise TransportError("serve loop without a connection")
            try:
                msg = recv_message(sock, self.recv_poll_s, self.max_payload_nbytes)
            except TransportTimeout:
                idle_s += self.recv_poll_s
                if idle_s >= self.idle_exit_s:
                    # Orphaned: the server vanished without a shutdown.
                    self._stop = True
                continue
            idle_s = 0.0
            self._dispatch(sock, msg)

    def _dispatch(self, sock, msg: dict[str, Any]) -> None:
        serial = msg.get("serial")
        if not isinstance(serial, int):
            raise FrameError(f"request without a serial: {sorted(msg)}")
        ack = msg.get("ack")
        if isinstance(ack, int):
            self._replies.release_below(ack)
        cached = self._replies.get(serial)
        if cached is not None:
            send_message(sock, cached, self._send_lock)
            return
        op = msg.get("op")
        try:
            value = self._execute(op, msg)
            reply = {"serial": serial, "ok": True, "value": value}
        except Exception as exc:  # application error -> the server, not a crash
            reply = {"serial": serial, "ok": False, "error": repr(exc)}
        self._replies.put(serial, reply)
        send_message(sock, reply, self._send_lock)
        if op == "shutdown":
            self._stop = True

    def _execute(self, op: str | None, msg: dict[str, Any]) -> Any:
        if op == "ping":
            return {}
        if op == "shutdown":
            return {}
        if op == "train":
            return self._op_train(msg)
        if op == "probe":
            return self._op_probe(msg)
        if op == "compress":
            return self._op_compress(msg)
        if op == "restore":
            return self._op_restore(msg)
        raise TransportError(f"unknown op {op!r}")

    def _client(self, msg: dict[str, Any]):
        cid = msg["cid"]
        if self._clients is None:
            raise TransportError("request before handshake setup")
        return self._clients[cid]

    def _op_train(self, msg: dict[str, Any]) -> dict[str, Any]:
        client = self._client(msg)
        params, _ = vector_from_frame_bytes(msg["params"], self.max_payload_nbytes)
        update = client.local_train(
            params,
            self._local_cfg,
            round_index=msg.get("round_index", 0),
            **msg.get("kwargs", {}),
        )
        # The delta travels as its own CRC'd dense64 frame; the rest of
        # the update (flops, extras, metadata) pickles bit-exactly.  A
        # shallow copy keeps the worker-side object intact.
        stripped = copy.copy(update)
        stripped.delta = None
        return {
            "update": stripped,
            "delta": vector_to_frame_bytes(update.delta),
        }

    def _op_probe(self, msg: dict[str, Any]) -> dict[str, Any]:
        client = self._client(msg)
        params, _ = vector_from_frame_bytes(msg["params"], self.max_payload_nbytes)
        probe = client.probe_delta(params, self._local_cfg)
        return {"probe": vector_to_frame_bytes(probe)}

    def _op_compress(self, msg: dict[str, Any]) -> dict[str, Any]:
        client = self._client(msg)
        grad, _ = vector_from_frame_bytes(msg["grad"], self.max_payload_nbytes)
        ratio = msg.get("ratio")
        if ratio is None:
            payload = client.compressor.compress(grad)
        else:
            payload = client.compressor.compress(grad, ratio)
        return {"payload": payload.to_frame(0).to_bytes()}

    def _op_restore(self, msg: dict[str, Any]) -> dict[str, Any]:
        client = self._client(msg)
        frame = Frame.from_bytes(
            msg["payload"], max_payload_nbytes=self.max_payload_nbytes
        )
        client.compressor.restore(CompressedGradient.from_frame(frame))
        return {}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: parse arguments and run one worker to completion."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Federated client worker: dial a repro server and serve RPCs.",
    )
    parser.add_argument(
        "--connect", required=True, help="server address (host:port or unix:/path)"
    )
    parser.add_argument(
        "--index", type=int, default=None, help="worker slot to claim (default: any)"
    )
    parser.add_argument(
        "--idle-exit-s",
        type=float,
        default=600.0,
        help="exit after this much request silence (orphan reaping)",
    )
    args = parser.parse_args(argv)
    worker = Worker(args.connect, index=args.index, idle_exit_s=args.idle_exit_s)
    return worker.run()


if __name__ == "__main__":
    raise SystemExit(main())
