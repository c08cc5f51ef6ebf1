"""Server-side socket transport: links, RPC retry loop, remote proxies.

The server (engine process) listens on one TCP or Unix-domain address;
each of K worker processes dials in, handshakes, and then serves
requests for the client ids it owns (``cid % num_workers``).  Every
request/reply is a sealed wire frame (see
:mod:`repro.transport.messages`); replies to long-running operations
are kept alive by worker heartbeats, so the per-leg deadline
(:attr:`TransportConfig.deadline_s`) detects a dead or partitioned
peer rather than a slow one.

Failure discipline (the robustness contract):

* any stream error — timeout, reset, CRC failure, truncation — poisons
  the connection: the socket is closed and the worker re-dials, which
  resynchronises framing (a corrupted stream can never be re-aligned
  in place);
* the request is then retried on the fresh connection under the
  deterministic :class:`~repro.sim.RetryPolicy`, with jitter drawn
  from the kernel's ``("transport", cid)`` stream so snapshot/resume
  replays the schedule byte-identically;
* the worker's reply cache makes retries exactly-once: a re-sent
  serial returns the recorded reply without re-executing (re-running
  local training would advance the client RNG and fork the
  trajectory);
* exhausting the schedule raises :class:`~repro.transport.base.PeerGone`
  — the engine's signal to emit the terminal ``DROPPED`` event and
  proceed at quorum.

The remote proxies (:class:`RemoteClientPopulation`,
:class:`RemoteClient`, :class:`RemoteCompressor`) give the engines and
strategies the exact object surface of their in-process counterparts,
so AdaFL's probe/score/compress protocol runs unchanged — every client
access simply crosses the wire to the worker that owns the real
client.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Iterable, Mapping

import numpy as np

from repro.compression.base import CompressedGradient, SparseDelta
from repro.sim.trace import DROPPED
from repro.transport.base import (
    PeerGone,
    TransportConfig,
    TransportError,
    TransportTimeout,
    WorkerError,
    WorkerSetup,
)
from repro.transport.messages import (
    pack_message,
    unpack_message,
    vector_from_frame_bytes,
    vector_to_frame_bytes,
)
from repro.wire.frame import (
    Frame,
    FrameCorruptionError,
    FrameError,
    read_frame,
)

__all__ = [
    "parse_address",
    "open_listener",
    "dial",
    "close_quietly",
    "send_message",
    "recv_message",
    "SocketTransport",
    "RemoteClientPopulation",
    "RemoteClient",
    "RemoteCompressor",
]


# ----------------------------------------------------------------------
# Address and stream plumbing (shared with the worker side)
# ----------------------------------------------------------------------
def parse_address(address: str) -> tuple[int, Any]:
    """``"host:port"`` -> TCP, ``"unix:/path"`` -> Unix-domain."""
    if address.startswith("unix:"):
        return socket.AF_UNIX, address[len("unix:"):]
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(f"address {address!r} is neither host:port nor unix:/path")
    return socket.AF_INET, (host or "127.0.0.1", int(port))


def open_listener(address: str, backlog: int = 16) -> tuple[socket.socket, str]:
    """Bind and listen; returns ``(socket, resolved_address)``.

    TCP port 0 resolves to the kernel-assigned ephemeral port, so
    tests can listen collision-free and hand workers the real address.
    """
    family, target = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        if family == socket.AF_INET:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)
        sock.listen(backlog)
        if family == socket.AF_INET:
            host, port = sock.getsockname()[:2]
            resolved = f"{host}:{port}"
        else:
            resolved = f"unix:{target}"
    except OSError:
        close_quietly(sock)
        raise
    return sock, resolved


def dial(address: str, timeout_s: float) -> socket.socket:
    """Connect to a transport address with a bounded handshake budget."""
    family, target = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout_s)
        sock.connect(target)
        if family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        close_quietly(sock)
        raise
    return sock


def send_message(
    sock: socket.socket, obj: Mapping[str, Any], lock: threading.Lock | None = None
) -> None:
    """Seal and send one message (atomic under ``lock`` if given)."""
    buf = pack_message(dict(obj))
    if lock is not None:
        with lock:
            sock.sendall(buf)
    else:
        sock.sendall(buf)


def recv_message(
    sock: socket.socket,
    deadline_s: float | None,
    max_payload_nbytes: int,
) -> dict[str, Any]:
    """Read one sealed message off the stream.

    ``deadline_s`` bounds every individual ``recv`` — the liveness
    window since the last byte, not a total-transfer cap (heartbeats
    and payload bytes both reset it).  Raises
    :class:`TransportTimeout` on silence, :class:`FrameError` (or a
    subclass) on a damaged or truncated stream.
    """
    sock.settimeout(deadline_s)
    try:
        frame = read_frame(sock.recv, max_payload_nbytes=max_payload_nbytes)
    except socket.timeout as exc:  # noqa: UP041 - socket.timeout is the raised type
        raise TransportTimeout(f"no bytes within {deadline_s}s") from exc
    return unpack_message(frame)


# ----------------------------------------------------------------------
# Per-worker connection state
# ----------------------------------------------------------------------
class _WorkerLink:
    """One worker's connection slot: socket, serials, buffered replies."""

    def __init__(self, wid: int, own: tuple[int, ...]):
        self.wid = wid
        self.own = own
        self.sock: socket.socket | None = None
        self.epoch = 0  # bumped on every (re)attach
        self.attached = threading.Event()
        self.down = False
        self._serial = 0
        self._open: set[int] = set()  # serials whose reply is not consumed yet
        self._replies: dict[int, dict[str, Any]] = {}
        self._lock = threading.Lock()

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """A new request under the next serial.

        ``ack`` is the watermark below which every serial has been
        consumed (or given up on) and will never be re-sent, so the
        worker may drop those replies from its :class:`ReplyCache`.
        """
        self._serial += 1
        self._open.add(self._serial)
        return {"op": op, "serial": self._serial, "ack": min(self._open), **fields}

    def consumed(self, serial: int) -> None:
        """``serial``'s reply was handed to the caller; it is never retried."""
        self._open.discard(serial)

    def attach(self, sock: socket.socket) -> None:
        with self._lock:
            old = self.sock
            self.sock = sock
            self.epoch += 1
            self._replies.clear()
        if old is not None:
            close_quietly(old)
        self.attached.set()

    def poison(self) -> None:
        """Drop the connection; the worker notices EOF and re-dials."""
        with self._lock:
            sock, self.sock = self.sock, None
            self._replies.clear()
        self.attached.clear()
        if sock is not None:
            close_quietly(sock)

    def require_sock(self) -> socket.socket:
        sock = self.sock
        if sock is None:
            raise TransportError(f"worker {self.wid} is not connected")
        return sock

    def await_reply(
        self, serial: int, deadline_s: float, max_payload_nbytes: int
    ) -> dict[str, Any]:
        """Read messages until ``serial``'s reply arrives.

        Heartbeats reset the liveness window; replies to other
        (pipelined) serials are buffered for their own awaiters.
        """
        while True:
            reply = self._replies.pop(serial, None)
            if reply is not None:
                return reply
            msg = recv_message(self.require_sock(), deadline_s, max_payload_nbytes)
            if msg.get("hb"):
                continue
            got = msg.get("serial")
            if not isinstance(got, int):
                raise FrameError(f"reply without a serial: {sorted(msg)}")
            if got == serial:
                return msg
            self._replies[got] = msg


def close_quietly(*socks: socket.socket) -> None:
    """Close socket(s), swallowing the OSError of an already-dead fd."""
    for sock in socks:
        try:
            sock.close()
        except OSError:
            pass


class _PendingTrain:
    """A pipelined train request awaiting its consume-time reply."""

    def __init__(self, wid: int, request: dict[str, Any], epoch: int, sent: bool):
        self.wid = wid
        self.request = request
        self.epoch = epoch
        self.sent = sent


# ----------------------------------------------------------------------
# The server-side transport
# ----------------------------------------------------------------------
class SocketTransport:
    """Length-prefixed frame RPC over TCP/Unix sockets, server side.

    Construction opens the listener and a daemon accept thread; workers
    dial in (directly or through the chaos proxy), handshake, and are
    bound to their :class:`_WorkerLink` slot.  ``wait_ready`` blocks
    until every slot is attached.  Client ownership is round-robin:
    worker ``w`` of ``W`` serves every ``cid`` with ``cid % W == w``.
    """

    remote = True

    def __init__(
        self,
        address: str,
        num_workers: int,
        num_clients: int,
        setup: WorkerSetup,
        config: TransportConfig | None = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if num_clients < 1:
            raise ValueError("need at least one client")
        self.config = config or TransportConfig()
        self.num_workers = num_workers
        self.num_clients = num_clients
        self._setup_bytes = setup.to_bytes()
        self._links = [
            _WorkerLink(w, tuple(range(w, num_clients, num_workers)))
            for w in range(num_workers)
        ]
        self._pending_train: dict[int, _PendingTrain] = {}
        self._kernel = None
        self._trace = None
        self._population: RemoteClientPopulation | None = None
        self._closed = False
        self._listener, self.address = open_listener(address)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-transport-accept", daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle -----------------------------------------------------
    def bind_kernel(self, kernel, trace) -> None:
        """Adopt the engine's kernel (jitter streams) and trace bus."""
        self._kernel = kernel
        self._trace = trace

    def wait_ready(self, timeout_s: float | None = None) -> None:
        """Block until every worker slot has handshaken.

        "Handshaken" means the worker was sent its ``welcome``; it
        builds its replica of the federation *after* that
        (``Worker._build``: import the experiment stack, synthesise the
        data).  The first request it is sent — normally the first
        round's ``heartbeat`` — waits out that build, a few hundred
        milliseconds once per run; every later ping is sub-millisecond.
        """
        budget = timeout_s if timeout_s is not None else self.config.connect_timeout_s
        deadline = time.monotonic() + budget
        for link in self._links:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not link.attached.wait(remaining):
                raise TransportTimeout(
                    f"worker {link.wid} did not connect within {budget}s"
                )

    def close(self) -> None:
        """Shut down workers (best effort) and release the listener."""
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            sock = link.sock
            if sock is None or link.down:
                continue
            try:
                request = link.request("shutdown")
                send_message(sock, request)
                link.await_reply(
                    request["serial"],
                    self.config.deadline_s,
                    self.config.max_payload_nbytes,
                )
            except (OSError, TransportError, FrameError):
                pass
            link.poison()
        close_quietly(self._listener)

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- population / topology -----------------------------------------
    def population(self) -> "RemoteClientPopulation":
        if self._population is None:
            self._population = RemoteClientPopulation(self, self.num_clients)
        return self._population

    def owner_of(self, cid: int) -> int:
        if not 0 <= cid < self.num_clients:
            raise KeyError(f"client id {cid} out of range")
        return cid % self.num_workers

    def down_cids(self) -> frozenset[int]:
        """Client ids owned by workers currently marked dead."""
        dead: set[int] = set()
        for link in self._links:
            if link.down:
                dead.update(link.own)
        return frozenset(dead)

    def heartbeat(self) -> list[int]:
        """Ping every live worker; returns wids that just went dark.

        Called at round start so a dead worker is discovered *before*
        its clients are selected, not mid-round after a full retry
        schedule per client.
        """
        lost = []
        for link in self._links:
            if link.down:
                continue
            try:
                self._call(link.wid, link.request("ping"), cid=None)
            except PeerGone:
                lost.append(link.wid)
        return lost

    # -- RPC surface used by the remote proxies ------------------------
    def prefetch_train(
        self,
        cids: Iterable[int],
        params: np.ndarray,
        round_index: int,
        kwargs_by_cid: Mapping[int, dict[str, Any]],
    ) -> None:
        """Pipeline train requests to every owning worker up front.

        Workers start training immediately and in parallel across
        processes — the multi-core payoff of real federation — while
        the engine's per-client loop consumes replies in its original
        deterministic order.  Send failures are absorbed: the
        consume-time call re-sends on the reconnected link.
        """
        params_frame = vector_to_frame_bytes(params)
        for cid in cids:
            if cid in self._pending_train:
                continue
            wid = self.owner_of(cid)
            link = self._links[wid]
            if link.down:
                continue
            request = link.request(
                "train",
                cid=cid,
                round_index=round_index,
                params=params_frame,
                kwargs=dict(kwargs_by_cid.get(cid, ())),
            )
            sent = False
            sock = link.sock
            if sock is not None:
                try:
                    send_message(sock, request)
                    sent = True
                except OSError:
                    link.poison()
            self._pending_train[cid] = _PendingTrain(wid, request, link.epoch, sent)

    def train(
        self,
        cid: int,
        params: np.ndarray,
        round_index: int,
        kwargs: Mapping[str, Any],
    ) -> Any:
        """Run one local training step on the owning worker."""
        pending = self._pending_train.pop(cid, None)
        wid = self.owner_of(cid)
        link = self._links[wid]
        if pending is not None:
            value = self._call(
                wid,
                pending.request,
                cid=cid,
                sent_epoch=pending.epoch if pending.sent else None,
            )
        else:
            request = link.request(
                "train",
                cid=cid,
                round_index=round_index,
                params=vector_to_frame_bytes(params),
                kwargs=dict(kwargs),
            )
            value = self._call(wid, request, cid=cid)
        update = value["update"]
        delta, _ = vector_from_frame_bytes(
            value["delta"], self.config.max_payload_nbytes
        )
        update.delta = delta
        return update

    def probe(self, cid: int, params: np.ndarray) -> np.ndarray:
        """One-minibatch utility probe on the owning worker."""
        wid = self.owner_of(cid)
        request = self._links[wid].request(
            "probe", cid=cid, params=vector_to_frame_bytes(params)
        )
        value = self._call(wid, request, cid=cid)
        probe, _ = vector_from_frame_bytes(
            value["probe"], self.config.max_payload_nbytes
        )
        return probe

    def compress(self, cid: int, grad: np.ndarray, ratio: float | None) -> bytes:
        """Compress ``grad`` on the worker's stateful compressor.

        Returns the codec frame bytes — the exact artifact the worker
        would put on the uplink, CRC and all.
        """
        wid = self.owner_of(cid)
        request = self._links[wid].request(
            "compress", cid=cid, ratio=ratio, grad=vector_to_frame_bytes(grad)
        )
        value = self._call(wid, request, cid=cid)
        return value["payload"]

    def restore(self, cid: int, payload_frame: bytes) -> None:
        """Return a NACKed payload's values to the worker's residual."""
        wid = self.owner_of(cid)
        request = self._links[wid].request("restore", cid=cid, payload=payload_frame)
        self._call(wid, request, cid=cid)

    # -- the retry loop ------------------------------------------------
    def _jitter_rng(self, cid: int | None, wid: int):
        if self._kernel is None or self.config.retry.jitter_frac <= 0.0:
            return None
        if cid is not None:
            return self._kernel.stream("transport", cid)
        return self._kernel.stream("transport", "worker", wid)

    def _emit_corrupt(self, cid: int | None, attempt: int) -> None:
        if self._trace is None or cid is None or self._kernel is None:
            return
        # A damaged reply stream is the socket-era twin of the
        # simulator's bitflip fault: same taxonomy bucket, observed on
        # real bytes.  Non-terminal — the connection is re-established
        # and the request retried.
        self._trace.emit(
            DROPPED,
            self._kernel.now,
            cid,
            reason="corrupt_frame",
            attempt=attempt,
            cause="transport",
        )

    def _call(
        self,
        wid: int,
        request: dict[str, Any],
        cid: int | None,
        sent_epoch: int | None = None,
    ) -> Any:
        """Send (or resume) one request and return its reply value.

        ``sent_epoch`` is the link epoch the request already went out
        on, if any.  It is compared once the link is attached, so a
        pipelined request lost with its connection is re-sent on the
        new one instead of awaited there.  Any stream failure poisons
        the connection and retries on the worker's reconnect under the
        deterministic schedule; exhaustion marks the worker down and
        raises :class:`PeerGone`.
        """
        link = self._links[wid]
        try:
            if link.down:
                raise PeerGone(wid=wid, cid=cid, attempts=0)
            policy = self.config.retry
            attempt = 1
            while True:
                try:
                    if not link.attached.wait(self.config.connect_timeout_s):
                        raise TransportTimeout(
                            f"worker {wid} not connected within "
                            f"{self.config.connect_timeout_s}s"
                        )
                    if sent_epoch != link.epoch:
                        sent_epoch = link.epoch
                        send_message(link.require_sock(), request)
                    reply = link.await_reply(
                        request["serial"],
                        self.config.deadline_s,
                        self.config.max_payload_nbytes,
                    )
                except WorkerError:
                    raise
                except (OSError, FrameError, TransportError) as exc:
                    if isinstance(exc, (FrameError, FrameCorruptionError)):
                        self._emit_corrupt(cid, attempt)
                    link.poison()
                    if policy.exhausted(attempt):
                        link.down = True
                        raise PeerGone(wid=wid, cid=cid, attempts=attempt) from exc
                    wait_s = policy.backoff_s(
                        attempt, self.config.backoff_base_s, self._jitter_rng(cid, wid)
                    )
                    # Give the worker the backoff window to re-dial; the
                    # next loop iteration re-waits on attachment anyway.
                    link.attached.wait(wait_s)
                    attempt += 1
                    continue
                if not reply.get("ok", False):
                    raise WorkerError(
                        f"worker {wid} failed {request.get('op')!r}: "
                        f"{reply.get('error', 'unknown error')}"
                    )
                return reply.get("value")
        finally:
            # Returned or given up on: either way never re-sent.
            link.consumed(request["serial"])

    # -- handshake -----------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                self._handshake(sock)
            except (OSError, FrameError, TransportError):
                close_quietly(sock)

    def _handshake(self, sock: socket.socket) -> None:
        if isinstance(sock, socket.socket) and sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = recv_message(
            sock, self.config.connect_timeout_s, self.config.max_payload_nbytes
        )
        if hello.get("op") != "hello":
            raise TransportError(f"expected hello, got {hello.get('op')!r}")
        wid = hello.get("wid")
        if wid is None:
            # Fresh worker: claim the requested slot, or the first
            # never-attached one.
            index = hello.get("index")
            if index is None:
                candidates = [
                    link.wid for link in self._links if not link.attached.is_set()
                ]
                if not candidates:
                    raise TransportError("all worker slots are taken")
                wid = candidates[0]
            else:
                wid = _slot_number(index, "index")
            if not 0 <= wid < self.num_workers:
                raise TransportError(f"worker index {wid} out of range")
            link = self._links[wid]
            send_message(
                sock,
                {
                    "op": "welcome",
                    "wid": wid,
                    "own": list(link.own),
                    "num_clients": self.num_clients,
                    "setup": self._setup_bytes,
                    "heartbeat_interval_s": self.config.heartbeat_interval_s,
                },
            )
        else:
            # Reconnect: the worker kept its state; just re-bind.
            wid = _slot_number(wid, "wid")
            if not 0 <= wid < self.num_workers:
                raise TransportError(f"worker id {wid} out of range")
            link = self._links[wid]
            send_message(sock, {"op": "welcome_back", "wid": wid})
        sock.settimeout(None)
        link.down = False
        link.attach(sock)


def _slot_number(value: Any, field: str) -> int:
    """A hello's worker slot: an ``int`` (not a ``bool``), else refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TransportError(f"hello {field} is a {type(value).__name__}, not an int")
    return value


# ----------------------------------------------------------------------
# Remote proxies: the in-process object surface, backed by RPC
# ----------------------------------------------------------------------
class RemoteClientPopulation:
    """Registry facade over clients that live in worker processes.

    Descriptor metadata (scores, upload/seen rounds) is real and
    server-local — strategies read and write the same numpy arrays the
    in-process registry provides — while heavy client state lives with
    the owning worker.  Materialization hooks and eviction are no-ops:
    lifecycle is the workers' concern (each owns its clients for the
    whole session).
    """

    is_population = True
    always_live = True

    def __init__(self, transport: SocketTransport, num_clients: int):
        self._transport = transport
        self._num = num_clients
        self.scores = np.full(num_clients, np.nan, dtype=np.float64)
        self.last_upload_round = np.full(num_clients, -1, dtype=np.int64)
        self.last_seen_round = np.full(num_clients, -1, dtype=np.int64)
        self._proxies: dict[int, RemoteClient] = {}

    def __len__(self) -> int:
        return self._num

    def ids(self) -> range:
        return range(self._num)

    def initial_ids(self, limit: int | None) -> range:
        if limit is None:
            return range(self._num)
        return range(min(int(limit), self._num))

    def __getitem__(self, cid: int) -> "RemoteClient":
        return self.client(cid)

    def client(self, cid: int) -> "RemoteClient":
        proxy = self._proxies.get(cid)
        if proxy is None:
            if not 0 <= cid < self._num:
                raise KeyError(f"client id {cid} out of range")
            proxy = RemoteClient(self._transport, cid)
            self._proxies[cid] = proxy
        return proxy

    def note_seen(self, ids, round_index: int) -> None:
        if len(ids):
            self.last_seen_round[np.asarray(ids, dtype=np.int64)] = round_index

    def evict_to_cap(self) -> None:
        """Client state lives with its worker; nothing to trim here."""

    def release(self, cid: int) -> None:
        """No server-side heavy state to release."""

    def on_materialize(self, hook) -> None:
        """No-op: workers attach per-client machinery themselves."""


class RemoteClient:
    """Proxy for one client living in a worker process.

    Presents the :class:`~repro.fl.client.Client` surface the engines
    and strategies touch — ``local_train``, ``probe_delta``,
    ``last_delta``, ``halted``, ``compressor`` — and routes the heavy
    calls to the owning worker.  Like an in-process client it keeps no
    copy of what it returns: ``last_delta`` is set by the engine, and
    only for a strategy that reads it (``reads_last_delta``), from the
    delta of the train reply — the vector the scorer would read
    in-process.  Worker-side clients retain nothing.
    """

    def __init__(self, transport: SocketTransport, cid: int):
        self.client_id = cid
        self.halted = False
        self.compressor = RemoteCompressor(transport, cid)
        self.last_delta: np.ndarray | None = None
        self._transport = transport

    def local_train(
        self, global_params: np.ndarray, config, round_index: int = 0, **kwargs
    ):
        del config  # the worker trains with its identical local config
        return self._transport.train(self.client_id, global_params, round_index, kwargs)

    def probe_delta(self, global_params: np.ndarray, config) -> np.ndarray:
        del config
        return self._transport.probe(self.client_id, global_params)


class RemoteCompressor:
    """Proxy for the worker-resident stateful compressor.

    ``compress`` ships the gradient down as a dense64 frame and gets
    the real codec frame back — reconstructing a
    :class:`~repro.compression.base.CompressedGradient` bit-identical
    to the worker's, header CRC and all.  ``decompress`` is stateless
    and local: the same :class:`~repro.compression.base.SparseDelta`
    view an in-process compressor returns, so socket and in-memory runs
    fold the same type; ``restore`` ships the payload frame back so
    NACKed values rejoin the worker's residual.
    """

    name = "remote"

    def __init__(self, transport: SocketTransport, cid: int):
        self._transport = transport
        self._cid = cid

    def compress(
        self, grad: np.ndarray, ratio: float | None = None
    ) -> CompressedGradient:
        frame_bytes = self._transport.compress(self._cid, grad, ratio)
        frame = Frame.from_bytes(
            frame_bytes,
            max_payload_nbytes=self._transport.config.max_payload_nbytes,
        )
        return CompressedGradient.from_frame(frame)

    def decompress(self, payload: CompressedGradient) -> SparseDelta:
        data = payload.data
        if "indices" not in data or "values" not in data:
            raise TransportError(
                f"remote decompress supports sparse payloads, got {payload.method!r}"
            )
        return SparseDelta.of(payload)

    def restore(self, payload: CompressedGradient) -> None:
        self._transport.restore(self._cid, payload.to_frame(0).to_bytes())
