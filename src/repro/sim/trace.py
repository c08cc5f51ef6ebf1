"""Typed event-trace telemetry bus.

Every observable thing that happens inside an engine — a selection, a
transfer leg, a local-training interval, a drop with its cause, a
halt/wake, an aggregation, an evaluation — is emitted as one
:class:`TraceEvent` on an :class:`EventTrace`.  Sinks subscribe to the
bus; the engines always attach the metrics reducer
(:class:`repro.fl.metrics.MetricsReducer`), and callers may add a ring
buffer, a JSONL writer, or the streaming summary reducer
(:class:`repro.sim.analysis.SummarySink`).

Event taxonomy
--------------
``run_start``/``run_end`` bracket a run and carry the run header
(mode, method, client count, dense model bytes).  Per activity:

* ``selected`` — one per synchronous round: the chosen participants
  (``clients``) and the availability set (``available``).
* ``downlink_start``/``downlink_end`` — one model broadcast attempt;
  the end event carries ``ok``.  Bytes are charged per attempt.
* ``train_start``/``train_end`` — one local-training interval.
* ``uplink_start``/``uplink_end`` — one update upload attempt.
* ``dropped`` — work lost, with ``reason`` one of
  ``downlink_lost | uplink_lost | deadline | fault | offline |
  crash | server_down | corrupt | corrupt_frame | stale``
  (``offline`` additionally carries ``cause``: churn vs dropout fault
  vs crash downtime).  Terminal retry exhaustion carries
  ``terminal=True`` and the attempt count.  ``offline`` clients were
  never selected, so they do not count as dropped uploads in round
  records; ``corrupt``/``corrupt_frame``/``stale`` are *rejections*
  by the server's update validation — numeric screen, wire-frame
  CRC-32 check, and replay/staleness serials respectively — and are
  counted separately (``RoundRecord.rejected_uploads``).
* ``halted``/``woken`` — a client parked until the next global model
  version (``cause``: strategy halting, dropout fault, churn) and its
  wake-up (``cause``: version change or the deadlock guard's
  ``forced`` dispatch).
* ``aggregated`` — the server folded deliveries in: closes one
  :class:`~repro.fl.metrics.RoundRecord` (sync: the round barrier;
  async: one absorbed update, with ``staleness`` and ``applied``).
* ``evaluated`` — accuracy/loss of the current global model.

Timestamps are simulated seconds.  Events are emitted in engine
execution order; within a synchronous round, per-client legs all start
at the round barrier, so timestamps are monotone per client but not
globally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable

__all__ = [
    "TraceEvent",
    "EventTrace",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "EVENT_TYPES",
    "DROP_REASONS",
    "COUNTED_DROP_REASONS",
    "REJECTED_DROP_REASONS",
    "UNCOUNTED_DROP_REASONS",
    "RUN_START",
    "RUN_END",
    "SELECTED",
    "DOWNLINK_START",
    "DOWNLINK_END",
    "TRAIN_START",
    "TRAIN_END",
    "UPLINK_START",
    "UPLINK_END",
    "DROPPED",
    "HALTED",
    "WOKEN",
    "AGGREGATED",
    "EVALUATED",
]

RUN_START = "run_start"
RUN_END = "run_end"
SELECTED = "selected"
DOWNLINK_START = "downlink_start"
DOWNLINK_END = "downlink_end"
TRAIN_START = "train_start"
TRAIN_END = "train_end"
UPLINK_START = "uplink_start"
UPLINK_END = "uplink_end"
DROPPED = "dropped"
HALTED = "halted"
WOKEN = "woken"
AGGREGATED = "aggregated"
EVALUATED = "evaluated"

EVENT_TYPES = frozenset(
    {
        RUN_START,
        RUN_END,
        SELECTED,
        DOWNLINK_START,
        DOWNLINK_END,
        TRAIN_START,
        TRAIN_END,
        UPLINK_START,
        UPLINK_END,
        DROPPED,
        HALTED,
        WOKEN,
        AGGREGATED,
        EVALUATED,
    }
)

# reprolint: allow[R506] read from source by lint rules R302/R303 (the closed drop-reason set)
DROP_REASONS = (
    "downlink_lost",
    "uplink_lost",
    "deadline",
    "fault",
    "offline",
    "crash",
    "server_down",
    "corrupt",
    "corrupt_frame",
    "stale",
)
# Reasons that count toward RoundRecord.dropped_uploads: work that was
# selected/attempted and then lost.  "offline" clients never entered
# the round, mirroring how dropout-faulted absentees were never
# counted as drops.
COUNTED_DROP_REASONS = frozenset(
    {"downlink_lost", "uplink_lost", "deadline", "fault", "crash", "server_down"}
)
# Reasons assigned by the server's update validation: the payload
# arrived but was refused — ``corrupt`` by the numeric screen,
# ``corrupt_frame`` by the wire-frame CRC-32 integrity check, and
# ``stale`` by the replay/staleness serials.  Counted into
# RoundRecord.rejected_uploads.
REJECTED_DROP_REASONS = frozenset({"corrupt", "corrupt_frame", "stale"})
# Reasons that enter no RoundRecord tally: the client never joined the
# round (offline at selection time), so there is no upload to count as
# lost or rejected.  Together the three buckets partition DROP_REASONS
# — reprolint R303 keeps the partition disjoint and exhaustive.
# reprolint: allow[R506] read from source by lint rule R303 (third bucket of the partition)
UNCOUNTED_DROP_REASONS = frozenset({"offline"})


@dataclass(frozen=True)
class TraceEvent:
    """One observable simulator occurrence."""

    seq: int
    t: float
    type: str
    client: int | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical one-line JSON (byte-deterministic for a given run)."""
        obj = {"seq": self.seq, "t": self.t, "type": self.type}
        if self.client is not None:
            obj["client"] = self.client
        if self.data:
            obj["data"] = self.data
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonify)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        obj = json.loads(line)
        return cls(
            seq=obj["seq"],
            t=obj["t"],
            type=obj["type"],
            client=obj.get("client"),
            data=obj.get("data", {}),
        )


def _jsonify(value):
    """Fallback serialiser for numpy scalars/arrays and ranges in event data."""
    if isinstance(value, range):
        return list(value)
    if hasattr(value, "item") and getattr(value, "ndim", None) in (None, 0):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


class TraceSink:
    """Base class for trace consumers (duck typing suffices)."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called by ``EventTrace.close``."""


class RingBufferSink(TraceSink):
    """Keeps the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 100_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        from collections import deque

        self._buffer: Any = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink(TraceSink):
    """Appends each event as one canonical JSON line.

    Accepts a path (opened/closed by the sink) or an open text file
    object (left open on ``close``).  Two runs of the same spec + seed
    produce byte-identical files.
    """

    def __init__(self, path_or_file: str | Path | IO[str]):
        if hasattr(path_or_file, "write"):
            self._file = path_or_file
            self._owns = False
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns = True

    def emit(self, event: TraceEvent) -> None:
        self._file.write(event.to_json() + "\n")

    def close(self) -> None:
        if self._owns:
            self._file.close()
        else:
            self._file.flush()


class EventTrace:
    """The telemetry bus: fan-out of typed events to pluggable sinks."""

    def __init__(self, sinks: Iterable[TraceSink] = ()):
        self._sinks: list[TraceSink] = list(sinks)
        self._seq = 0

    @property
    def enabled(self) -> bool:
        """Whether any sink is attached (emit is a no-op otherwise)."""
        return bool(self._sinks)

    def add_sink(self, sink: TraceSink) -> TraceSink:
        self._sinks.append(sink)
        return sink

    def emit(
        self, type: str, t: float, client: int | None = None, **data: Any
    ) -> None:
        """Publish one event to every sink."""
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown trace event type {type!r}")
        if not self._sinks:
            return
        event = TraceEvent(seq=self._seq, t=float(t), type=type, client=client, data=data)
        self._seq += 1
        for sink in self._sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "EventTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
