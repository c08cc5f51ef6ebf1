"""The worker's reply cache holds the in-flight window, not the run.

Every ``train`` reply carries a model-sized delta frame.  The server
piggy-backs an ``ack`` watermark (every serial below it was consumed)
on each request, and the worker drops acknowledged replies at once —
while a request that is still in flight, re-sent after a reconnect, is
answered from the cache without training a second time.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.transport.messages import ReplyCache, vector_from_frame_bytes
from repro.transport.sockets import _WorkerLink
from tests.transport.inproc import inproc_session, mlp_spec


def _cached_nbytes(worker) -> int:
    return sum(
        len(reply["value"].get("delta", b""))
        for reply in worker._replies._replies.values()
        if isinstance(reply.get("value"), dict)
    )


class TestWatermark:
    def test_ack_is_the_lowest_unconsumed_serial(self):
        link = _WorkerLink(0, (0, 1))
        first, second = link.request("train", cid=0), link.request("train", cid=1)
        assert (first["serial"], first["ack"]) == (1, 1)
        assert (second["serial"], second["ack"]) == (2, 1)
        link.consumed(2)  # out of order: serial 1 may still be retried
        assert link.request("ping")["ack"] == 1
        link.consumed(1)
        link.consumed(3)
        assert link.request("ping") == {"op": "ping", "serial": 4, "ack": 4}

    def test_release_below_keeps_what_may_be_retried(self):
        cache = ReplyCache()
        for serial in (1, 2, 3, 4):
            cache.put(serial, {"serial": serial})
        cache.release_below(3)
        assert [cache.get(s) is not None for s in (1, 2, 3, 4)] == [False, False, True, True]


@pytest.mark.transport
def test_cache_bytes_stay_within_the_in_flight_window_over_50_rounds():
    cids = [0, 1, 2, 3]
    with inproc_session(mlp_spec(num_clients=len(cids))) as (session, worker):
        transport, params = session.transport, session.federation.server.params
        delta_nbytes = len(transport.train(0, params, 0, {}).delta) * 8
        peak = 0
        for round_index in range(1, 51):
            assert transport.heartbeat() == []
            transport.prefetch_train(cids, params, round_index, {})
            for cid in cids:
                transport.train(cid, params, round_index, {})
                peak = max(peak, _cached_nbytes(worker))
        # The pipelined window (one reply per cohort member) plus the
        # frame headers; without the watermark this is 200 replies.
        assert delta_nbytes <= peak <= (len(cids) + 1) * (delta_nbytes + 64)
        assert len(worker._replies._replies) <= len(cids) + 1


@pytest.mark.transport
def test_retried_in_flight_serial_is_served_from_the_cache():
    with inproc_session(mlp_spec(num_clients=2)) as (session, worker):
        transport, params = session.transport, session.federation.server.params
        executed = []
        real_execute = worker._execute

        def recording_execute(op, msg):
            value = real_execute(op, msg)
            executed.append((op, msg["serial"], value))
            return value

        worker._execute = recording_execute
        transport.prefetch_train([0, 1], params, 0, {})
        deadline = time.monotonic() + 30.0
        while len(executed) < 2:
            assert time.monotonic() < deadline, "worker never ran the pipelined requests"
            time.sleep(0.01)
        # Both replies are lost with the connection; the consume-time
        # calls re-send the same serials on the worker's reconnect.
        transport._links[0].poison()
        updates = [transport.train(cid, params, 0, {}) for cid in (0, 1)]

        assert [(op, serial) for op, serial, _ in executed] == [("train", 2), ("train", 3)]
        for update, (_, _, value) in zip(updates, executed):
            first_run, _ = vector_from_frame_bytes(value["delta"])
            np.testing.assert_array_equal(update.delta, first_run)
