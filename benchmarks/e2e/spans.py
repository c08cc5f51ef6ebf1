"""Span tracing from outside the program.

A fixed table (`TABLE`) names the public entry point of every layer.
`install` wraps each one — class methods are patched on the class,
name-imported functions in the module that imported them — so that a
call made while a root span is open records `(index, name, parent,
start, end)` in memory; `uninstall` puts the originals back.  Nothing
in `src/` is edited, which is also the limit: code that runs in worker
processes is not wrapped.

A layer's *self* time is its spans' duration minus the part covered by
their child spans (`self_times`), so the self times of all names,
root included, sum to the root's duration.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

__all__ = ["SpanTableError", "Target", "TABLE", "RPC_OPS", "Recorder", "install",
           "uninstall", "self_times"]

# A span is five numbers: index, name id, parent index, start, end.
SPAN_WIDTH = 5


class SpanTableError(RuntimeError):
    """A patch target no longer resolves, or a dominant span has no hits."""


# -- counters taken at the same boundaries as the spans ----------------
def _samples(counts, args, kwargs, result):
    counts["nn.samples"] += args[1].shape[0]


def _fused(counts, args, kwargs, result):
    if result is not None:
        counts["fl.batched.fused"] += len(result)


def _kept(counts, args, kwargs, result):
    counts["compression.kept"] += result.data["indices"].size
    counts["compression.dim"] += result.dim


def _frame_bytes(counts, args, kwargs, result):
    counts["wire.bytes"] += len(result)


def _selected(counts, args, kwargs, result):
    counts["core.available"] += len(args[1])
    counts["core.selected"] += len(result)


def _lost(counts, args, kwargs, result):
    if not result.delivered:
        counts["network.lost"] += 1


@dataclass(frozen=True)
class Target:
    """One entry point: `qualname` looked up in `module`, timed as `span`."""

    span: str
    module: str
    qualname: str
    count: Callable[[Counter, tuple, dict, Any], None] | None = None

    def __str__(self) -> str:
        return f"{self.module}:{self.qualname}"


def _targets(span, module, *qualnames, count=None):
    return tuple(Target(span, module, q, count) for q in qualnames)


# Server-side RPC entry points of SocketTransport, one span name each.
RPC_OPS = ("train", "prefetch_train", "probe", "compress", "restore", "heartbeat")


TABLE: tuple[Target, ...] = (
    # repro.nn — the serial path and the fused multi-client kernel
    *_targets("nn.forward", "repro.nn.sequential", "Sequential.forward", count=_samples),
    *_targets("nn.backward", "repro.nn.sequential", "Sequential.backward"),
    *_targets("nn.optim", "repro.nn.optim", "SGD.step"),
    *_targets("nn.flat", "repro.nn.sequential", "Sequential.set_flat_params",
              "Sequential.get_flat_params", "Sequential.get_flat_grads",
              "Sequential.zero_grad"),
    *_targets("nn.batched", "repro.nn.batched", "MultiClientTrainer.run"),
    # repro.fl — client glue, batched glue, server, validation, population
    *_targets("fl.batched.glue", "repro.fl.sync_engine", "train_clients_batched",
              count=_fused),
    *_targets("fl.batched.glue", "repro.fl.async_engine", "train_clients_batched",
              count=_fused),
    *_targets("fl.client.train", "repro.fl.client", "Client.local_train"),
    *_targets("fl.client.probe", "repro.fl.client", "Client.probe_delta"),
    *_targets("fl.server.aggregate", "repro.fl.strategy", "SyncStrategy.aggregate"),
    *_targets("fl.server.aggregate", "repro.core.adafl", "AdaFLSync.aggregate"),
    *_targets("fl.server.aggregate", "repro.fl.baselines", "FedBuff.on_update"),
    *_targets("fl.server.evaluate", "repro.fl.server", "Server.evaluate"),
    *_targets("fl.validation.screen", "repro.fl.validation", "UpdateValidator.stamp",
              "UpdateValidator.check_replay", "UpdateValidator.check_staleness",
              "UpdateValidator.screen", "UpdateValidator.screen_aggregate"),
    *_targets("fl.validation.screen", "repro.fl.sync_engine", "verify_frame"),
    *_targets("fl.validation.screen", "repro.fl.async_engine", "verify_frame"),
    *_targets("fl.population.client", "repro.fl.population", "ClientPopulation.client"),
    *_targets("fl.population.factory", "repro.experiments.scalability",
              "SyntheticShardFactory.__call__"),
    *_targets("fl.population.evict", "repro.fl.population",
              "ClientPopulation.evict_to_cap", "ClientPopulation.release"),
    # repro.core — selection (utility scoring runs inside it)
    *_targets("core.select", "repro.fl.strategy", "SyncStrategy.select", count=_selected),
    *_targets("core.select", "repro.core.adafl", "AdaFLSync.select", count=_selected),
    *_targets("core.select", "repro.experiments.scalability", "reservoir_sample"),
    # repro.compression
    *_targets("compression.compress", "repro.compression.dgc",
              "DGCCompressor.compress", count=_kept),
    *_targets("compression.decompress", "repro.compression.dgc",
              "DGCCompressor.decompress"),
    # repro.wire
    *_targets("wire.encode", "repro.fl.strategy", "encode_frame"),
    *_targets("wire.encode", "repro.compression.base", "encode_frame"),
    *_targets("wire.encode_model", "repro.fl.strategy", "encode_model_frame"),
    *_targets("wire.encode", "repro.wire.frame", "Frame.to_bytes", count=_frame_bytes),
    *_targets("wire.decode", "repro.wire.frame", "Frame.from_bytes"),
    *_targets("wire.decode", "repro.compression.base", "decode_frame"),
    # repro.sim / repro.network
    *_targets("sim.kernel.downlink", "repro.sim.kernel", "SimKernel.downlink"),
    *_targets("sim.kernel.uplink", "repro.sim.kernel", "SimKernel.uplink"),
    *_targets("sim.kernel.compute", "repro.sim.kernel", "SimKernel.compute"),
    *_targets("sim.trace_emit", "repro.sim.trace", "EventTrace.emit"),
    *_targets("network.transfer", "repro.network.conditions",
              "ClientNetwork.send_update", "ClientNetwork.receive_model", count=_lost),
    # repro.data
    *_targets("data.synth", "repro.experiments.runner", "make_image_classification"),
    *_targets("data.synth", "repro.experiments.scalability", "make_image_classification"),
    # repro.transport — server side only; every failed RPC attempt
    # poisons its link before the retry, which is what `retry` counts
    *(Target(f"transport.rpc.{op}", "repro.transport.sockets", f"SocketTransport.{op}")
      for op in RPC_OPS),
    *_targets("transport.retry", "repro.transport.sockets", "_WorkerLink.poison"),
)

ROOT = "fl.engine"


class Recorder:
    """In-memory span store with a parent stack.

    Spans are recorded only while a root span is open, so set-up work
    (imports, `build_federation`) stays out of the split.
    """

    def __init__(self) -> None:
        # Flat, SPAN_WIDTH numbers per span: a list of plain floats and
        # ints adds nothing for the garbage collector to track, where
        # one tuple per span would (hundreds of thousands on async runs).
        self.spans: list[float] = []
        self.names: list[str] = [ROOT]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_index = itertools.count().__next__
        self._installed: list[tuple[Any, str, Any]] = []  # owner, attribute, original

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def root(self):
        """Open the root span: the region `wall_s` measures."""
        if self._stack:
            raise RuntimeError("root span is already open")
        index = self._next_index()
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.extend((index, 0, -1, start, end))

    def wrap(self, fn: Callable, span: str, count=None) -> Callable:
        name = self.name_id(span)
        stack, counts = self._stack, self.counts
        record, next_index, clock = self.spans.extend, self._next_index, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = next_index()
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((index, name, parent, start, end))
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """(owner, attribute, raw attribute value) for one table entry."""
    try:
        owner = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        # vars(), not getattr: a method must be defined on the class the
        # table names, and classmethod/staticmethod wrappers must survive.
        return owner, attr, vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as exc:
        raise SpanTableError(f"patch target {target} does not resolve: {exc!r}") from exc


def install(recorder: Recorder, table: Iterable[Target] = TABLE) -> None:
    """Wrap every table entry; a target that does not resolve is fatal."""
    resolved = [(t, *_resolve(t)) for t in table]
    for target, owner, attr, raw in resolved:
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(recorder.wrap(raw.__func__, target.span, target.count))
        else:
            patched = recorder.wrap(raw, target.span, target.count)
        setattr(owner, attr, patched)
        recorder._installed.append((owner, attr, raw))


def uninstall(recorder: Recorder) -> None:
    """Restore the originals and check that nothing is left wrapped."""
    for owner, attr, raw in reversed(recorder._installed):
        setattr(owner, attr, raw)
    for owner, attr, raw in recorder._installed:
        if vars(owner)[attr] is not raw:
            raise SpanTableError(f"{owner.__name__}.{attr} was not restored")
    recorder._installed.clear()


def self_times(spans: Sequence, names: list[str]) -> dict[str, dict[str, float]]:
    """Per name: summed self time and call count (`spans` flat or in rows)."""
    import numpy as np

    table = np.asarray(spans, dtype=np.float64).reshape(-1, SPAN_WIDTH)
    n = len(table)
    index = table[:, 0].astype(np.int64)
    parent = table[:, 2].astype(np.int64)
    duration = table[:, 4] - table[:, 3]
    if n and (np.sort(index) != np.arange(n)).any():
        raise ValueError("span indices must be 0..n-1, each closed exactly once")
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    own = duration - covered[index]
    name = table[:, 1].astype(np.int64)
    self_s = np.bincount(name, weights=own, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    return {
        names[i]: {"self_s": float(self_s[i]), "calls": int(calls[i])}
        for i in range(len(names))
    }
