"""Run metrics: per-round records and whole-run summaries.

The paper's evaluation reduces to a handful of quantities per run —
accuracy over rounds/time, client-to-server update count, bytes moved,
and per-update payload sizes.  :class:`RunResult` carries all of them
and derives the Table I/II columns (update frequency, cost reduction,
gradient size range, compression ratio range).

Records are no longer assembled ad hoc inside the engines: both
engines emit a typed event stream (:mod:`repro.sim.trace`) and
:class:`MetricsReducer` — a trace sink — folds it back into
:class:`RoundRecord`/:class:`RunResult`.  The same reducer replays a
recorded JSONL trace (:func:`run_result_from_trace`), so a trace file
is a complete, lossless account of a run's metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.sim.trace import (
    AGGREGATED,
    COUNTED_DROP_REASONS,
    DOWNLINK_END,
    DROPPED,
    EVALUATED,
    REJECTED_DROP_REASONS,
    RUN_START,
    TraceEvent,
    TraceSink,
    UPLINK_END,
)

__all__ = ["RoundRecord", "RunResult", "MetricsReducer", "run_result_from_trace"]


@dataclass
class RoundRecord:
    """Everything measured in one aggregation step.

    For synchronous engines one record is one communication round; for
    asynchronous engines one record is one server model update.
    """

    round_index: int
    sim_time_s: float
    num_uploads: int
    bytes_up: int
    bytes_down: int
    participants: list[int] = field(default_factory=list)
    accuracy: float | None = None
    loss: float | None = None
    upload_sizes: list[int] = field(default_factory=list)
    dropped_uploads: int = 0
    # Uploads that arrived but were refused by server-side validation
    # (trace reasons "corrupt"/"stale") — counted separately from
    # dropped_uploads, which covers work lost in transit.
    rejected_uploads: int = 0


@dataclass
class RunResult:
    """Summary of one federated training run."""

    method: str
    num_clients: int
    records: list[RoundRecord] = field(default_factory=list)
    model_bytes: int = 0  # dense size of one model/gradient payload

    # ------------------------------------------------------------------
    # Curves
    # ------------------------------------------------------------------
    def accuracy_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(round indices, accuracy) at evaluated rounds."""
        pts = [(r.round_index, r.accuracy) for r in self.records if r.accuracy is not None]
        if not pts:
            return np.zeros(0), np.zeros(0)
        rounds, accs = zip(*pts)
        return np.asarray(rounds, dtype=np.int64), np.asarray(accs)

    def time_accuracy_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(simulated seconds, accuracy) at evaluated rounds."""
        pts = [(r.sim_time_s, r.accuracy) for r in self.records if r.accuracy is not None]
        if not pts:
            return np.zeros(0), np.zeros(0)
        times, accs = zip(*pts)
        return np.asarray(times), np.asarray(accs)

    # ------------------------------------------------------------------
    # Scalar summaries (Table I / II columns)
    # ------------------------------------------------------------------
    @property
    def final_accuracy(self) -> float:
        """Last evaluated accuracy (NaN if never evaluated)."""
        for record in reversed(self.records):
            if record.accuracy is not None:
                return record.accuracy
        return float("nan")

    @property
    def best_accuracy(self) -> float:
        accs = [r.accuracy for r in self.records if r.accuracy is not None]
        return max(accs) if accs else float("nan")

    @property
    def total_uploads(self) -> int:
        """Client-to-server updates delivered (paper's "Update Freq.")."""
        return sum(r.num_uploads for r in self.records)

    @property
    def total_dropped(self) -> int:
        return sum(r.dropped_uploads for r in self.records)

    @property
    def total_rejected(self) -> int:
        """Uploads refused by server-side validation across the run."""
        return sum(r.rejected_uploads for r in self.records)

    @property
    def total_bytes_up(self) -> int:
        return sum(r.bytes_up for r in self.records)

    @property
    def total_bytes_down(self) -> int:
        return sum(r.bytes_down for r in self.records)

    @property
    def total_bytes(self) -> int:
        return self.total_bytes_up + self.total_bytes_down

    @property
    def total_sim_time(self) -> float:
        return self.records[-1].sim_time_s if self.records else 0.0

    def upload_sizes(self) -> np.ndarray:
        """All delivered upload payload sizes, in bytes."""
        sizes: list[int] = []
        for r in self.records:
            sizes.extend(r.upload_sizes)
        return np.asarray(sizes, dtype=np.int64)

    def gradient_size_range(self) -> tuple[int, int]:
        """(min, max) upload payload size — the Table I "Gradient Size" column."""
        sizes = self.upload_sizes()
        if sizes.size == 0:
            return (0, 0)
        return int(sizes.min()), int(sizes.max())

    def compression_ratio_range(self) -> tuple[float, float]:
        """(max, min) achieved compression ratio, as the paper reports it."""
        sizes = self.upload_sizes()
        if sizes.size == 0 or self.model_bytes == 0:
            return (1.0, 1.0)
        ratios = self.model_bytes / sizes
        return float(ratios.max()), float(ratios.min())

    def update_cost_reduction(self, ideal_updates: int) -> float:
        """Fractional reduction of update count vs full participation.

        Table I/II's "Cost Reduc." column: 1 - updates/ideal, where the
        ideal counts every client updating every round (800 in the
        paper's setup).
        """
        if ideal_updates <= 0:
            raise ValueError("ideal_updates must be positive")
        return 1.0 - self.total_uploads / ideal_updates

    def byte_cost_reduction(self, ideal_updates: int) -> float:
        """Fractional reduction in uplink bytes vs dense full participation."""
        if ideal_updates <= 0:
            raise ValueError("ideal_updates must be positive")
        ideal_bytes = ideal_updates * self.model_bytes
        if ideal_bytes == 0:
            return 0.0
        return 1.0 - self.total_bytes_up / ideal_bytes

    def mean_participation_rate(self) -> float:
        """Average fraction of clients uploading per aggregation step."""
        if not self.records or self.num_clients == 0:
            return 0.0
        per_round = [r.num_uploads / self.num_clients for r in self.records]
        return float(np.mean(per_round))

    def time_to_accuracy(self, target: float) -> float | None:
        """First simulated time at which accuracy >= target, else None."""
        for r in self.records:
            if r.accuracy is not None and r.accuracy >= target:
                return r.sim_time_s
        return None

    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round index at which accuracy >= target, else None."""
        for r in self.records:
            if r.accuracy is not None and r.accuracy >= target:
                return r.round_index
        return None


class MetricsReducer(TraceSink):
    """Folds the engine event stream into :class:`RoundRecord` objects.

    The reducer is the *only* producer of round records: the engines
    attach one to their trace bus and read records back from it, so a
    run's metrics are by construction a pure function of its trace.

    Accounting rules (matching the engines' historical semantics):

    * ``downlink_end`` always charges its bytes — a lost broadcast
      still consumed the link, and retries are charged per attempt;
    * ``uplink_end`` with ``ok`` parks the payload size; it only counts
      toward ``bytes_up``/``upload_sizes`` if a later ``aggregated``
      event lists the client as a participant (a deadline or fault drop
      after a successful transfer discards it);
    * ``dropped`` increments ``dropped_uploads`` only for
      :data:`~repro.sim.trace.COUNTED_DROP_REASONS` — ``offline``
      clients never entered the round — and ``rejected_uploads`` for
      :data:`~repro.sim.trace.REJECTED_DROP_REASONS` (validation
      refusals);
    * ``aggregated`` closes one record: with a ``participants`` list it
      is a synchronous barrier, otherwise one absorbed async update;
    * ``evaluated`` attaches accuracy/loss to the last closed record.
    """

    def __init__(self) -> None:
        self.header: dict = {}
        self.records: list[RoundRecord] = []
        self._bytes_down = 0
        self._dropped = 0
        self._rejected = 0
        self._pending: dict[int, int] = {}

    # -- TraceSink -----------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        etype = event.type
        if etype == DOWNLINK_END:
            self._bytes_down += int(event.data.get("nbytes", 0))
        elif etype == UPLINK_END:
            if event.data.get("ok", True) and event.client is not None:
                self._pending[event.client] = int(event.data.get("nbytes", 0))
        elif etype == DROPPED:
            reason = event.data.get("reason")
            if reason in COUNTED_DROP_REASONS:
                self._dropped += 1
            elif reason in REJECTED_DROP_REASONS:
                self._rejected += 1
        elif etype == AGGREGATED:
            self._close_record(event)
        elif etype == EVALUATED:
            if self.records:
                self.records[-1].accuracy = event.data.get("accuracy")
                self.records[-1].loss = event.data.get("loss")
        elif etype == RUN_START:
            self.header = dict(event.data)

    def _close_record(self, event: TraceEvent) -> None:
        data = event.data
        if "participants" in data:
            # Synchronous barrier: commit parked uploads in aggregation
            # order (preserves the engine's upload_sizes ordering).
            participants = [int(c) for c in data["participants"]]
            sizes = [self._pending[c] for c in participants]
            round_index = int(data.get("round", len(self.records)))
        else:
            # Asynchronous: one absorbed update from one client.
            participants = [] if event.client is None else [int(event.client)]
            sizes = [int(data["nbytes"])] if "nbytes" in data else []
            round_index = int(data.get("update", len(self.records)))
        self.records.append(
            RoundRecord(
                round_index=round_index,
                sim_time_s=event.t,
                num_uploads=len(participants),
                bytes_up=sum(sizes),
                bytes_down=self._bytes_down,
                participants=participants,
                upload_sizes=sizes,
                dropped_uploads=self._dropped,
                rejected_uploads=self._rejected,
            )
        )
        self._bytes_down = 0
        self._dropped = 0
        self._rejected = 0
        self._pending = {}

    # -- results -------------------------------------------------------
    def result(self) -> RunResult:
        """The :class:`RunResult` reduced so far."""
        return RunResult(
            method=str(self.header.get("method", "")),
            num_clients=int(self.header.get("num_clients", 0)),
            records=list(self.records),
            model_bytes=int(self.header.get("model_bytes", 0)),
        )


# reprolint: allow[R506] the replay half of "JSONL replay = live result" (docs/architecture.md, test_engine_trace)
def run_result_from_trace(events: Iterable[TraceEvent]) -> RunResult:
    """Replay a recorded trace (e.g. from ``load_trace``) into a result."""
    reducer = MetricsReducer()
    for event in events:
        reducer.emit(event)
    return reducer.result()
