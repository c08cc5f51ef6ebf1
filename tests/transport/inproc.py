"""A socket session whose one worker is a thread of the test process.

Real loopback sockets, the real :class:`~repro.transport.worker.Worker`
serve loop and the real server transport — only the process boundary is
missing, so a test can count what *both* sides do (CRC passes, cached
replies) and reach into the worker's state.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager

from repro.experiments.presets import FAST
from repro.experiments.runner import FederationSpec
from repro.experiments.socket_run import socket_session
from repro.fl.baselines import FedAvg
from repro.transport.worker import Worker


def mlp_spec(num_clients: int = 4, seed: int = 0) -> FederationSpec:
    scale = dataclasses.replace(FAST, num_clients=num_clients)
    return FederationSpec(
        dataset="mnist", model="mlp", distribution="iid", scale=scale, seed=seed
    )


@contextmanager
def inproc_session(spec: FederationSpec, strategy=None, **session_kwargs):
    """Yields ``(session, worker)``; the worker thread is joined on exit.

    ``strategy`` defaults to FedAvg at full participation;
    ``session_kwargs`` go to :func:`socket_session` (``mode``, ...).
    """
    started: list[tuple[Worker, threading.Thread]] = []

    def start(address: str) -> None:
        worker = Worker(address, reconnect_wait_s=0.05)
        thread = threading.Thread(target=worker.run, name="inproc-worker", daemon=True)
        thread.start()
        started.append((worker, thread))

    if strategy is None:
        strategy = FedAvg(participation_rate=1.0)
    with socket_session(
        spec, strategy, num_workers=1, external=start, **session_kwargs
    ) as session:
        worker, thread = started[0]
        # ``wait_ready`` returns at the welcome; the first ping waits
        # out the worker's federation build.
        assert session.transport.heartbeat() == []
        yield session, worker
    thread.join(10.0)
    assert not thread.is_alive(), "worker did not stop on shutdown"
