"""Unified discrete-event simulation kernel.

``repro.sim`` is the substrate both FL engines run on:

* :mod:`repro.sim.events` — the deterministic event queue;
* :mod:`repro.sim.kernel` — :class:`SimKernel`: clock, event queue,
  root + per-client RNG streams, and the transfer/compute accounting
  both engines share;
* :mod:`repro.sim.trace` — the typed :class:`EventTrace` telemetry bus
  with pluggable sinks (ring buffer, JSONL writer, streaming summary);
* :mod:`repro.sim.faults` — the one fault vocabulary: availability
  (churn, client crashes, Fig. 1 straggler dropout), upload fate
  (Fig. 1 data loss, stale/duplicate deliveries), payload corruption
  and server outages, grouped into a :class:`FaultPlan`;
* :mod:`repro.sim.retry` — :class:`RetryPolicy`, the deterministic
  backoff/max-attempt schedule both engines use for transfer legs;
* :mod:`repro.sim.analysis` — per-client timelines, drop-reason
  breakdowns, and straggler attribution derived from recorded traces.

The package is deliberately FL-agnostic: nothing here imports
``repro.fl``.  The metrics reducer that folds a trace back into
``RoundRecord``/``RunResult`` lives in :mod:`repro.fl.metrics`.
"""

from repro.sim.analysis import (
    ClientTimeline,
    SummarySink,
    format_summary,
    load_trace,
    summarize_trace,
)
from repro.sim.events import Event, EventQueue
from repro.sim.faults import (
    AvailabilityModel,
    ChurnModel,
    ClientCrashModel,
    FaultPlan,
    PayloadCorruptionModel,
    ServerOutageModel,
    StaleUploadModel,
    StragglerDropoutModel,
    UploadLossModel,
    straggler_ids,
)
from repro.sim.kernel import LegResult, SimKernel
from repro.sim.retry import RetryPolicy
from repro.sim.trace import (
    AGGREGATED,
    COUNTED_DROP_REASONS,
    REJECTED_DROP_REASONS,
    DOWNLINK_END,
    DOWNLINK_START,
    DROP_REASONS,
    DROPPED,
    EVALUATED,
    EVENT_TYPES,
    EventTrace,
    HALTED,
    JsonlSink,
    RingBufferSink,
    RUN_END,
    RUN_START,
    SELECTED,
    TraceEvent,
    TRAIN_END,
    TRAIN_START,
    UPLINK_END,
    UPLINK_START,
    WOKEN,
)

__all__ = [
    "Event",
    "EventQueue",
    "SimKernel",
    "LegResult",
    "RetryPolicy",
    "FaultPlan",
    "AvailabilityModel",
    "ChurnModel",
    "ClientCrashModel",
    "StragglerDropoutModel",
    "UploadLossModel",
    "straggler_ids",
    "PayloadCorruptionModel",
    "StaleUploadModel",
    "ServerOutageModel",
    "EventTrace",
    "TraceEvent",
    "RingBufferSink",
    "JsonlSink",
    "SummarySink",
    "ClientTimeline",
    "load_trace",
    "summarize_trace",
    "format_summary",
    "EVENT_TYPES",
    "DROP_REASONS",
    "COUNTED_DROP_REASONS",
    "REJECTED_DROP_REASONS",
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
