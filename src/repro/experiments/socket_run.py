"""Multi-process federated runs: engines over the socket transport.

:func:`socket_session` is :func:`repro.experiments.runner.open_engine`
with the clients living in real worker processes: the server opens
a :class:`~repro.transport.SocketTransport`, spawns K workers
(``python -m repro.transport.worker``) or waits for external ones,
optionally threads every connection through a
:class:`~repro.transport.ChaosProxy`, and runs the engine against the
remote population.

The headline property — proven by the equivalence tests — is that a
socket run with no chaos produces a :class:`~repro.fl.metrics.RunResult`
*byte-identical* to the in-memory run of the same spec: the workers
build the same federation from the same spec (same shards, same
seeds), the sim clock never observes wall time, and every payload
crosses the wire as the same CRC'd frames the in-memory engines
account for.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.experiments.runner import (
    FederationSpec, Session, _federation_config, build_federation, open_engine,
)
from repro.fl.strategy import AsyncStrategy, SyncStrategy
from repro.sim import EventTrace
from repro.transport import (
    ChaosConfig,
    ChaosProxy,
    SocketTransport,
    TransportConfig,
    WorkerSetup,
    spawn_worker,
    terminate_workers,
)

__all__ = ["socket_session"]


@contextmanager
def socket_session(
    spec: FederationSpec,
    strategy: SyncStrategy | AsyncStrategy,
    mode: str = "sync",
    num_workers: int = 4,
    chaos: ChaosConfig | None = None,
    transport_config: TransportConfig | None = None,
    quorum_frac: float | None = None,
    validation=None,
    max_updates: int | None = None,
    trace: EventTrace | None = None,
    address: str = "127.0.0.1:0",
    ready_timeout_s: float = 60.0,
    external: Callable[[str], None] | None = None,
) -> Iterator[Session]:
    """Open a multi-process federation and yield the live session.

    The server process builds its own replica of the federation (for
    the server model and test set); each spawned worker builds the
    same one from the pickled spec and serves its share of the
    clients.  With ``chaos`` set, workers dial through a
    :class:`~repro.transport.ChaosProxy` that injects the configured
    faults into the real byte stream.  With ``external`` set no worker
    is spawned: it is called with the listening address (``repro
    serve`` prints it) and the session waits for ``num_workers``
    ``repro worker`` processes to dial in.
    """
    if mode not in ("sync", "async"):
        raise ValueError(f"mode must be 'sync' or 'async', not {mode!r}")
    config = _federation_config(
        spec, max_updates=max_updates, validation=validation, quorum_frac=quorum_frac
    )
    setup = WorkerSetup(
        builder=build_federation,
        builder_arg=spec,
        strategy=strategy,
        config=config,
    )
    transport = SocketTransport(
        address,
        num_workers=num_workers,
        num_clients=spec.scale.num_clients,
        setup=setup,
        config=transport_config,
    )
    proxy = None
    procs: list = []
    try:
        worker_target = transport.address
        if chaos is not None and chaos.active:
            proxy = ChaosProxy(transport.address, chaos)
            worker_target = proxy.address
        if external is not None:
            external(worker_target)
        else:
            procs = [spawn_worker(worker_target, i) for i in range(num_workers)]
        transport.wait_ready(ready_timeout_s)
        session = open_engine(spec, strategy, mode, config, trace=trace, transport=transport)
        session.procs, session.proxy = procs, proxy
        yield session
    finally:
        transport.close()
        if proxy is not None:
            proxy.close()
        terminate_workers(procs)
