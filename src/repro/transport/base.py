"""Transport abstraction: configuration, errors, and the in-memory default.

A *transport* is the substrate an engine moves payloads over.  Two
implementations ship:

* :class:`InMemoryTransport` — the historical single-process path.
  Clients are plain objects in the engine's address space and every
  "transfer" is a function call; all six pinned equivalence
  trajectories run here, bit-identical by construction.
* :class:`~repro.transport.sockets.SocketTransport` — server and K
  client worker processes exchange :mod:`repro.wire` frames over
  TCP or Unix-domain sockets, with per-leg deadlines, heartbeats,
  reconnect backoff, and graceful degradation when a worker dies.

Layering: ``repro.transport`` sits *below* ``repro.fl`` (it may import
``wire``, ``sim``, and ``compression`` only).  The worker process never
statically imports engine or experiment code — everything it needs
(federation builder, spec, strategy, config) arrives pickled in the
handshake's :class:`WorkerSetup` bundle, so the dependency arrow never
points upward.

Timing note: real sockets live on the host clock, the federation lives
on the simulated one.  The transport deliberately never touches the
sim clock — transfer durations are still charged analytically by the
kernel — so a federation run over sockets with no injected faults is
byte-identical to the in-memory run.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.retry import RetryPolicy

__all__ = [
    "TransportConfig",
    "TransportError",
    "TransportTimeout",
    "PeerGone",
    "WorkerError",
    "WorkerSetup",
    "InMemoryTransport",
]


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class TransportTimeout(TransportError):
    """A peer went quiet past the configured deadline."""


class WorkerError(TransportError):
    """The worker executed the request and reported an application error.

    Not a connectivity failure: retrying would re-raise, so the caller
    surfaces it instead of burning reconnect attempts.
    """


class PeerGone(TransportError):
    """A worker is unreachable after exhausting the retry schedule.

    The terminal transport failure: the engine maps it to a
    ``DROPPED(..., reason="crash", cause="transport", terminal=True)``
    trace event and proceeds without the peer (quorum permitting).
    """

    def __init__(self, wid: int, cid: int | None, attempts: int):
        self.wid = wid
        self.cid = cid
        self.attempts = attempts
        where = f"client {cid}" if cid is not None else f"worker {wid}"
        super().__init__(
            f"{where} unreachable after {attempts} attempt(s) (worker {wid})"
        )


@dataclass(frozen=True)
class TransportConfig:
    """Socket-transport tuning knobs (all wall-clock seconds).

    ``deadline_s`` is the per-leg liveness budget: a reply (or a
    heartbeat keeping it alive) must arrive within this window of the
    previous byte.  Workers heartbeat every ``heartbeat_interval_s``
    while connected, so a slow local-training step never trips the
    deadline — only a dead or partitioned peer does.  ``retry`` is the
    reconnect schedule (jitter drawn from the kernel's
    ``("transport", cid)`` stream, never wall-clock entropy, so a
    snapshot/resume mid-reconnect replays byte-identically);
    ``backoff_base_s`` is the unit the policy's backoff fractions
    scale.  ``max_payload_nbytes`` bounds any declared frame length
    before allocation (see :class:`repro.wire.frame.FrameOversized`).
    """

    connect_timeout_s: float = 10.0
    deadline_s: float = 15.0
    heartbeat_interval_s: float = 1.0
    backoff_base_s: float = 0.2
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=4,
            backoff_frac=1.0,
            multiplier=2.0,
            max_backoff_s=3.0,
            jitter_frac=0.25,
        )
    )
    max_payload_nbytes: int = 256 * 1024 * 1024
    # Worker-side redial schedule after a lost server connection.
    reconnect_attempts: int = 20
    reconnect_wait_s: float = 0.25

    def __post_init__(self) -> None:
        for name in (
            "connect_timeout_s",
            "deadline_s",
            "heartbeat_interval_s",
            "backoff_base_s",
            "reconnect_wait_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_payload_nbytes <= 0:
            raise ValueError("max_payload_nbytes must be positive")
        if self.reconnect_attempts < 1:
            raise ValueError("reconnect_attempts must be >= 1")


@dataclass
class WorkerSetup:
    """Everything a worker needs to build its replica of the federation.

    Travels pickled inside the handshake's welcome message.  The
    ``builder`` is pickled *by reference* (e.g.
    ``repro.experiments.runner.build_federation``), so the worker
    resolves it by import at unpickle time; ``builder_arg`` is its
    single argument (a federation spec).  The builder must return an
    object with ``server`` and ``clients`` attributes.  ``strategy``
    and ``config`` are the server's own instances at session start —
    the worker runs ``strategy.prepare`` purely to attach per-client
    machinery (e.g. AdaFL's DGC compressors); all scoring and
    aggregation state stays server-side.
    """

    builder: Callable[[Any], Any]
    builder_arg: Any
    strategy: Any
    config: Any

    def to_bytes(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WorkerSetup":
        setup = pickle.loads(blob)
        if not isinstance(setup, cls):
            raise TransportError(f"handshake bundle is a {type(setup).__name__}")
        return setup


# reprolint: allow[R506] the null object of the transport protocol: engines take it wherever they take None
class InMemoryTransport:
    """The single-process default: every transfer is a function call.

    Exists so callers can hold "a transport" uniformly; engines treat
    ``transport=None`` and an :class:`InMemoryTransport` identically
    (the in-memory code path, zero behavioural change).
    """

    remote = False

    def bind_kernel(self, kernel, trace) -> None:
        """No kernel hooks needed in-process."""

    def heartbeat(self) -> None:
        """Local clients cannot die independently of the engine."""

    def down_cids(self) -> frozenset[int]:
        """Nothing is ever unreachable in-process."""
        return frozenset()

    def close(self) -> None:
        """Nothing to tear down."""
