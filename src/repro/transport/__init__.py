"""Real multi-process federation: socket transport under both engines.

The engines historically called their clients as in-process objects;
this package makes the substrate explicit and pluggable:

* no transport (``transport=None``) — the default; clients are
  in-process objects and all pinned equivalence trajectories run
  here, bit-identical.
* :class:`~repro.transport.sockets.SocketTransport` — the server talks
  to K client worker processes (:mod:`repro.transport.worker`) over
  TCP or Unix-domain sockets, exchanging :mod:`repro.wire` frames
  verbatim, with per-leg deadlines, heartbeats, deterministic
  reconnect backoff, and graceful degradation (quorum + ``DROPPED``
  trace events) when a worker dies mid-round.
* :class:`~repro.transport.chaos.ChaosProxy` — a real man-in-the-middle
  that corrupts, delays, resets, and half-open-partitions the stream,
  proving the fault taxonomy end-to-end against actual sockets.

Layering: ``transport`` sits below ``fl`` and may import only
``wire``, ``sim``, and ``compression``.  This package is also the only
place that imports ``socket`` / ``subprocess``.
"""

from __future__ import annotations

from repro.transport.base import (
    PeerGone,
    TransportConfig,
    TransportError,
    TransportTimeout,
    WorkerError,
    WorkerSetup,
)
from repro.transport.chaos import ChaosConfig, ChaosProxy
from repro.transport.launch import spawn_worker, terminate_workers
from repro.transport.sockets import (
    RemoteClient,
    RemoteClientPopulation,
    RemoteCompressor,
    SocketTransport,
)
from repro.transport.worker import Worker

__all__ = [
    "PeerGone",
    "TransportConfig",
    "TransportError",
    "TransportTimeout",
    "WorkerError",
    "WorkerSetup",
    "ChaosConfig",
    "ChaosProxy",
    "spawn_worker",
    "terminate_workers",
    "RemoteClient",
    "RemoteClientPopulation",
    "RemoteCompressor",
    "SocketTransport",
    "Worker",
]
