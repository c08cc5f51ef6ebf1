"""Message envelopes: every transport message is one sealed wire frame.

A message is a Python dict pickled and wrapped in a CRC'd blob frame
(:func:`repro.wire.frame.seal`), so the socket layer inherits the wire
layer's integrity guarantees verbatim: a bit flipped on the stream is
a :class:`~repro.wire.frame.FrameCorruptionError` at the receiver,
never a silently mangled request.  Numeric payloads embedded in a
message (model parameters, deltas, compressed gradients) travel as
*nested real frames* — dense float64 for full-fidelity vectors, the
codec frame for compressed uploads — each with its own CRC, exactly
the bytes the in-memory engines account for.

Requests carry a per-link monotone ``serial``; the worker's
:class:`ReplyCache` makes retried requests exactly-once: a serial seen
before returns the cached reply without re-executing (re-running a
training request would advance the client's RNG a second time and
fork the trajectory).
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.wire.codecs import decode_frame, encode_frame
from repro.wire.frame import Frame, FrameError, seal, unseal

__all__ = [
    "HEARTBEAT",
    "pack_message",
    "unpack_message",
    "vector_to_frame_bytes",
    "vector_from_frame_bytes",
    "ReplyCache",
]

# The liveness keep-alive: skipped by reply readers, resets deadlines.
HEARTBEAT = {"hb": True}


def pack_message(obj: dict[str, Any]) -> bytearray:
    """Pickle ``obj`` and wrap it in a sealed (CRC'd) blob frame."""
    return seal(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def unpack_message(sealed: Frame | bytes | bytearray) -> dict[str, Any]:
    """Unwrap and unpickle one sealed message: its bytes (CRC checked
    here) or the frame :func:`~repro.wire.frame.read_frame` verified.

    A body that does not unpickle to a dict raises :class:`FrameError`."""
    body = unseal(sealed)
    try:
        obj = pickle.loads(body)
    except Exception as exc:  # a CRC-valid body that is not a pickle
        raise FrameError(f"transport message does not unpickle: {exc!r}") from exc
    if not isinstance(obj, dict):
        raise FrameError(f"transport message is a {type(obj).__name__}, not a dict")
    return obj


def vector_to_frame_bytes(vec: np.ndarray, model_version: int = 0) -> bytearray:
    """Encode a float64 vector as a dense64 frame (bit-exact transport)."""
    frame = encode_frame("dense64", np.size(vec), {"values": vec}, model_version)
    return frame.to_bytes()


def vector_from_frame_bytes(
    buf: bytes, max_payload_nbytes: int | None = None
) -> tuple[np.ndarray, int]:
    """Decode a dense64 frame back to ``(vector, model_version)``.

    The returned array owns its memory (a copy of the frame payload),
    so callers may mutate it freely.
    """
    frame = Frame.from_bytes(buf, max_payload_nbytes=max_payload_nbytes)
    method, data = decode_frame(frame)
    if method != "dense64":
        raise FrameError(f"expected a dense64 vector frame, got {method!r}")
    return np.array(data["values"]), frame.model_version


class ReplyCache:
    """Bounded serial -> reply map backing exactly-once request semantics.

    The worker records every reply it sends; a request whose serial was
    already served (a server-side retry after a reconnect) returns the
    cached reply instead of re-executing.  A ``train`` reply holds a
    model-sized delta frame, so replies are dropped as soon as the
    server's ``ack`` watermark says they were consumed
    (:meth:`release_below`) and the cache holds the server's in-flight
    window (pipelined train prefetches plus retries); the entry cap is
    the backstop for a peer that never acks.
    """

    def __init__(self, cap: int = 256):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self._cap = cap
        self._replies: OrderedDict[int, dict[str, Any]] = OrderedDict()

    def get(self, serial: int) -> dict[str, Any] | None:
        return self._replies.get(serial)

    def put(self, serial: int, reply: dict[str, Any]) -> None:
        self._replies[serial] = reply
        while len(self._replies) > self._cap:
            self._replies.popitem(last=False)

    def release_below(self, serial: int) -> None:
        """Drop every reply the server acknowledged: those under ``serial``."""
        self._replies = OrderedDict(
            (s, reply) for s, reply in self._replies.items() if s >= serial
        )
