"""Frame invariants over every registered codec.

A frame *is* its wire buffer, adopted without copying on both the
encode and the parse side.  These properties hold what that must not
cost: value semantics (``==``, ``hash``, pickle, frozen fields), a CRC
check of every received byte, and typed errors — raised before anything
payload-sized is allocated — for every malformed input.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.wire import (
    FRAME_OVERHEAD,
    Frame,
    FrameCorruptionError,
    FrameError,
    FrameOversized,
    FrameTruncated,
    decode_frame,
    encode_frame,
    read_frame,
)

pytestmark = pytest.mark.wire

METHODS = ("none", "dense64", "dgc", "topk", "qsgd", "terngrad", "masked")


def _payload_data(method: str, dim: int, rng: np.random.Generator) -> dict:
    if method in ("none", "dense64"):
        return {"values": rng.standard_normal(dim)}
    if method in ("dgc", "topk"):
        k = int(rng.integers(0, dim + 1))
        indices = np.sort(rng.choice(dim, size=k, replace=False)).astype(np.uint32)
        return {"indices": indices, "values": rng.standard_normal(k).astype(np.float32)}
    if method == "qsgd":
        levels = int(rng.integers(1, 256))
        return {
            "norm": float(rng.random()),
            "levels": rng.integers(0, levels + 1, size=dim).astype(np.uint32),
            "signs": rng.choice(np.array([-1, 1], dtype=np.int8), size=dim),
            "num_levels": levels,
        }
    if method == "terngrad":
        return {"scale": float(rng.random()), "ternary": rng.integers(-1, 2, size=dim)}
    nsel = int(rng.integers(1, dim + 1))
    inner = str(rng.choice(["none", "dense64", "qsgd", "terngrad"]))
    return {
        "indices": np.sort(rng.choice(dim, size=nsel, replace=False)).astype(np.uint32),
        "inner_method": inner,
        "inner_data": _payload_data(inner, nsel, rng),
    }


@st.composite
def frames(draw) -> Frame:
    method = draw(st.sampled_from(METHODS))
    dim = draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    version = draw(st.integers(0, 2**32 - 1))
    return encode_frame(method, dim, _payload_data(method, dim, rng), version)


@settings(max_examples=150, deadline=None)
@given(frames(), st.sampled_from((bytes, bytearray, memoryview)))
def test_parse_of_any_buffer_kind_equals_the_encoded_frame(frame, kind):
    wire = frame.to_bytes()
    assert len(wire) == len(frame) == FRAME_OVERHEAD + frame.payload_nbytes
    buf = kind(bytes(wire))
    back = Frame.from_bytes(buf)
    assert back == frame and hash(back) == hash(frame)
    assert back.payload == bytes(frame.payload) and back.crc32 == frame.crc32
    assert back.to_bytes() is buf  # adopted, not copied
    assert decode_frame(back)[0] == decode_frame(frame)[0]
    assert read_frame(io.BytesIO(wire).read) == frame


@settings(max_examples=150, deadline=None)
@given(frames(), st.data())
def test_any_flipped_payload_bit_fails_the_crc(frame, data):
    assume(frame.payload_nbytes > 0)
    damaged = bytearray(frame.to_bytes())
    bit = data.draw(st.integers(0, 8 * frame.payload_nbytes - 1))
    damaged[FRAME_OVERHEAD + bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(FrameCorruptionError):
        Frame.from_bytes(damaged)
    with pytest.raises(FrameCorruptionError):
        read_frame(io.BytesIO(damaged).read)


@settings(max_examples=100, deadline=None)
@given(frames(), st.data())
def test_malformed_lengths_raise_their_typed_error(frame, data):
    wire = bytes(frame.to_bytes())
    cut = data.draw(st.integers(1, len(wire)))
    with pytest.raises(FrameTruncated):
        Frame.from_bytes(wire[:-cut])
    with pytest.raises(FrameTruncated):
        read_frame(io.BytesIO(wire[:-cut]).read)
    with pytest.raises(FrameError) as trailing:
        Frame.from_bytes(wire + b"\x00")
    assert type(trailing.value) is FrameError
    with pytest.raises(FrameOversized):
        Frame.from_bytes(wire, max_payload_nbytes=frame.payload_nbytes - 1)


def _header(length: int) -> bytes:
    return struct.pack("<4sBBBBIIII", b"RPWF", 1, 1, 0, 0, 0, 0, length, 0)


MIB = 1 << 20


@pytest.mark.parametrize("case,error", [
    ("truncated", FrameTruncated),
    ("trailing", FrameError),
    ("oversized", FrameOversized),
    ("giant_length_field", FrameTruncated),
    ("stream_oversized", FrameOversized),
    ("stream_giant_length_field", FrameOversized),
])
def test_malformed_input_is_refused_before_a_payload_sized_allocation(case, error):
    wire = bytes(Frame(codec_id=7, flags=0, dim=0, model_version=0, payload=bytes(MIB)).to_bytes())
    # Inputs are built before tracing starts: only the decoder's own
    # allocations are measured.
    parse, arg, cap = {
        "truncated": (Frame.from_bytes, wire[:-1], None),
        "trailing": (Frame.from_bytes, wire + b"x", None),
        "oversized": (Frame.from_bytes, wire, MIB - 1),
        "giant_length_field": (Frame.from_bytes, _header(2**32 - 1) + bytes(64), None),
        "stream_oversized": (read_frame, io.BytesIO(wire).read, MIB - 1),
        "stream_giant_length_field": (read_frame, io.BytesIO(_header(2**32 - 1)).read, 2**31),
    }[case]
    tracemalloc.start()
    try:
        with pytest.raises(error):
            parse(arg, cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MIB // 8


def test_verified_parse_allocates_nothing_payload_sized():
    wire = bytes(Frame(codec_id=7, flags=0, dim=0, model_version=0, payload=bytes(MIB)).to_bytes())
    tracemalloc.start()
    try:
        frame = Frame.from_bytes(wire)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frame.payload_nbytes == MIB and peak < MIB // 8


class TestValueSemantics:
    def _frame(self) -> Frame:
        return encode_frame("none", 5, {"values": np.arange(5.0)}, model_version=3)

    def test_pickle_round_trip(self):
        frame = self._frame()
        back = pickle.loads(pickle.dumps(frame))
        assert back == frame and hash(back) == hash(frame)
        assert bytes(back.to_bytes()) == bytes(frame.to_bytes())

    def test_pickle_is_rechecked_on_load(self):
        blob = bytearray(pickle.dumps(self._frame()))
        blob[blob.index(bytes(self._frame().payload))] ^= 0x01
        with pytest.raises(FrameCorruptionError):
            pickle.loads(bytes(blob))

    def test_equality_and_hash_follow_the_bytes(self):
        frame, twin = self._frame(), self._frame()
        other = encode_frame("none", 5, {"values": np.arange(5.0) + 1}, model_version=3)
        assert frame == twin and frame != other
        assert {frame, twin, other} == {frame, other}
        assert {frame: "a"}[twin] == "a"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self._frame().dim = 6

    def test_payload_is_a_readonly_bytes_like_view(self):
        frame = self._frame()
        assert len(frame.payload) == 20
        assert frame.payload == np.arange(5, dtype="<f4").tobytes()
        values = np.frombuffer(frame.payload, dtype="<f4")
        np.testing.assert_array_equal(values, np.arange(5.0))
        assert not values.flags.writeable
        assert frame.to_bytes() is frame.to_bytes()

    def test_constructor_copies_so_the_source_may_change(self):
        source = bytearray(b"mutable-payload")
        frame = Frame(codec_id=7, flags=0, dim=0, model_version=0, payload=source)
        source[0] ^= 0xFF
        assert frame.payload == b"mutable-payload"
        assert Frame.from_bytes(bytes(frame.to_bytes())) == frame
