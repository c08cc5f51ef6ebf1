"""Hop budget: how many CRC passes one payload costs on its way.

``zlib.crc32`` is the one integrity primitive of the wire layer, so
counting its calls over payload-sized buffers counts the passes a hop
makes.  The budget (``docs/architecture.md``): a dense upload is hashed
once by its sender and once by its receiver; a socket message is hashed
once per envelope and once per nested frame, at each end.  Beside the
passes, one allocation budget: a dense upload's only payload-sized
buffer is its wire buffer.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
import zlib

import numpy as np
import pytest

import repro.fl.strategy as strategy_module
from repro.experiments.runner import run_sync
from repro.fl.baselines import FedAvg
from repro.fl.client import ClientUpdate
from repro.fl.validation import ValidationConfig, verify_frame
from tests.transport.inproc import inproc_session, mlp_spec


@pytest.fixture
def crc_sizes(monkeypatch) -> list[int]:
    """Byte length of every buffer ``zlib.crc32`` is asked to hash."""
    sizes: list[int] = []
    real = zlib.crc32

    def counting(data, *args):
        sizes.append(memoryview(data).nbytes)
        return real(data, *args)

    monkeypatch.setattr(zlib, "crc32", counting)
    return sizes


def test_dense_upload_is_hashed_once_by_each_end(crc_sizes, monkeypatch):
    model_frames = []
    real_encode = strategy_module.encode_model_frame

    def counted_encode(params, version):
        frame = real_encode(params, version)
        model_frames.append(frame)
        return frame

    monkeypatch.setattr(strategy_module, "encode_model_frame", counted_encode)
    spec = mlp_spec(num_clients=4)
    spec = dataclasses.replace(spec, scale=dataclasses.replace(spec.scale, num_rounds=2))
    result = run_sync(spec, FedAvg(participation_rate=1.0), validation=ValidationConfig())

    assert result.total_uploads == 8 and model_frames
    payload_nbytes = model_frames[0].payload_nbytes  # dense float32, as the uploads
    assert max(crc_sizes) == payload_nbytes
    passes = crc_sizes.count(payload_nbytes)
    # The broadcast frame is hashed when encoded (once per version);
    # every upload once at the client and once at server receipt.
    assert passes - len(model_frames) == 2 * result.total_uploads



def test_dense_upload_allocates_only_its_wire_buffer():
    # The sender casts float64 -> float32 straight into the wire buffer;
    # the packet's delta, the bytes on the link and the receiver's CRC
    # check are all views over it (the hop budget's first row).
    d = 431_080  # the MNIST CNN's parameter count
    delta = np.random.default_rng(0).normal(size=d)
    update = ClientUpdate(
        client_id=0, round_index=0, num_samples=1, delta=delta, train_loss=0.0, flops=0
    )
    tracemalloc.start()
    try:
        packet = strategy_module._dense_upload(update, model_version=1)
        assert verify_frame(packet.frame.to_bytes()) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payload_nbytes = 4 * d
    assert packet.frame.payload_nbytes == payload_nbytes
    assert packet.delta.dtype == np.float32
    assert peak <= 1.25 * payload_nbytes, f"peak {peak / payload_nbytes:.2f}x the payload"


@pytest.mark.transport
def test_socket_train_round_trip_hashes_each_frame_once_per_side(crc_sizes):
    with inproc_session(mlp_spec(num_clients=2)) as (session, _worker):
        params = session.federation.server.params
        vector_nbytes = 8 * params.size  # nested dense64 frames
        del crc_sizes[:]
        session.transport.train(0, params, 0, {})
        big = sorted(n for n in crc_sizes if n >= vector_nbytes)
    # Request and reply each carry one nested vector frame inside one
    # sealed envelope; sender and receiver hash each exactly once.
    nested, envelopes = big[:4], big[4:]
    assert nested == [vector_nbytes] * 4
    assert len(envelopes) == 4 and min(envelopes) > vector_nbytes
    assert len(set(envelopes)) == 2  # request x2 ends, reply x2 ends
