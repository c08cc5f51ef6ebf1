"""Crash-safe run snapshots with bit-identical resume.

A snapshot is a single pickle of everything a run needs to continue
exactly where it stopped: the global model vector, every client's
local state (model buffers, shuffling RNG, control variates), the
strategy, the fault plan, the kernel clock with its pending
event queue, and the exact state of every RNG stream.  Because the
whole state is one ``pickle.dump``, shared references inside the run
(e.g. a delta aliased by two queued duplicate deliveries) survive the
round trip intact.

Two properties make resume *bit-identical* rather than merely
approximate:

* every source of randomness — the kernel root generator, per-client
  streams, derived fault/retry streams, client shuffling RNGs — is
  captured and restored in place, so the continued run draws the exact
  sequence the uninterrupted run would have drawn;
* the trace sequence counter and the metrics reducer travel with the
  snapshot, so the resumed engine's JSONL trace is the byte-for-byte
  suffix of the uninterrupted run's trace and its final
  :class:`~repro.fl.metrics.RunResult` covers the whole run.

Writes are atomic (temp file + ``os.replace``): a crash mid-write
leaves the previous snapshot intact.  Live trace sinks (open files)
are deliberately *not* part of the snapshot — a resumed run attaches
fresh sinks via ``load_snapshot(..., trace=...)``.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from repro.sim import EventTrace, SimKernel
from repro.wire.frame import seal, unseal

__all__ = ["SNAPSHOT_VERSION", "save_snapshot", "load_snapshot", "kernel_state"]

# 2: one fault plan (``chaos``) where version 1 carried ``faults`` and
# ``churn`` beside it.  3: client state carries no per-layer ``layers``
# entry (no model has per-client layer state).
SNAPSHOT_VERSION = 3


def kernel_state(kernel: SimKernel) -> dict:
    """The kernel's mutable state (clock, queue, RNG streams)."""
    return {
        "now": kernel.queue.now,
        "heap": list(kernel.queue._heap),
        "queue_seq": kernel.queue._seq,
        "rng": kernel.rng,
        "client_rngs": dict(kernel._client_rngs),
        "streams": dict(kernel._streams),
    }


def _restore_kernel(kernel: SimKernel, state: dict) -> None:
    kernel.queue.now = state["now"]
    kernel.queue._heap = list(state["heap"])
    kernel.queue._seq = state["queue_seq"]
    # The engine aliases ``kernel.rng`` at construction, so restore the
    # generator's state in place rather than rebinding the attribute.
    kernel.rng.bit_generator.state = state["rng"].bit_generator.state
    kernel._client_rngs.update(state["client_rngs"])
    kernel._streams.update(state["streams"])


def save_snapshot(engine, path) -> Path:
    """Atomically persist a running engine's full state to ``path``."""
    state = engine.snapshot_state()
    state["snapshot_version"] = SNAPSHOT_VERSION
    state["snapshot_every"] = engine.snapshot_every
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    # The pickle travels inside a sealed wire envelope, so a torn or
    # bit-rotted snapshot fails its CRC-32 at load instead of feeding
    # pickle a corrupted stream.
    blob = seal(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)
    return path


def load_snapshot(path, trace: EventTrace | None = None, keep_snapshotting: bool = True):
    """Rebuild an engine from a snapshot, ready to ``resume()``.

    ``trace`` attaches fresh sinks (e.g. a new JSONL file) to the
    resumed run; the restored trace continues the snapshotted sequence
    numbering, so concatenating the pre-crash and post-resume JSONL
    files reproduces the uninterrupted trace byte-for-byte.  With
    ``keep_snapshotting`` the resumed run stays crash-safe, writing
    future snapshots back to the same file.
    """
    path = Path(path)
    # Only a sealed envelope is unpickled: a file no CRC covers (the
    # pre-envelope format included) is refused before pickle sees it.
    state = pickle.loads(unseal(path.read_bytes()))
    version = state.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version!r}")

    common = dict(
        server=state["server"],
        clients=state["clients"],
        strategy=state["strategy"],
        config=state["config"],
        network=state["network"],
        device_flops=state["device_flops"],
        chaos=state["chaos"],
        trace=trace,
        snapshot_path=path if keep_snapshotting else None,
        snapshot_every=state["snapshot_every"],
    )
    if state["mode"] == "sync":
        from repro.fl.sync_engine import SyncEngine

        engine = SyncEngine(**common)
    elif state["mode"] == "async":
        from repro.fl.async_engine import AsyncEngine

        engine = AsyncEngine(**common)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown engine mode {state['mode']!r}")

    _restore_kernel(engine._kernel, state["kernel"])
    engine._trace._seq = state["trace_seq"]
    # The constructor attached a fresh reducer; swap the snapshotted
    # one (which holds the already-closed records) back in.
    engine._trace._sinks.remove(engine._reducer)
    engine._reducer = engine._trace.add_sink(state["reducer"])
    engine._validator = state["validator"]
    engine.restore_extra(state["extra"])
    return engine
