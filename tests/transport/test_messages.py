"""Message envelopes: sealed dicts, nested vector frames, reply cache."""

import numpy as np
import pytest

from repro.transport.messages import (
    HEARTBEAT,
    ReplyCache,
    pack_message,
    unpack_message,
    vector_from_frame_bytes,
    vector_to_frame_bytes,
)
from repro.wire import Frame, FrameCorruptionError, FrameError, seal


class TestMessageEnvelope:
    def test_roundtrip(self):
        msg = {"op": "train", "serial": 7, "kwargs": {"lr": 0.1}}
        assert unpack_message(pack_message(msg)) == msg

    def test_bit_flip_is_caught_by_crc(self):
        buf = bytearray(pack_message({"op": "ping", "serial": 1}))
        buf[-3] ^= 0x08
        with pytest.raises(FrameCorruptionError):
            unpack_message(bytes(buf))

    def test_non_dict_payload_refused(self):
        import pickle

        blob = seal(pickle.dumps(["not", "a", "dict"]))
        with pytest.raises(FrameError):
            unpack_message(blob)

    @pytest.mark.parametrize("body", [b"not a pickle", b""])
    def test_non_pickle_body_refused(self, body):
        # CRC-valid but not a pickle: the one typed stream error.
        with pytest.raises(FrameError, match="does not unpickle"):
            unpack_message(seal(body))

    def test_heartbeat_shape(self):
        # Reply readers skip any message carrying the hb key.
        assert HEARTBEAT == {"hb": True}
        assert unpack_message(pack_message(HEARTBEAT)) == HEARTBEAT


class TestVectorFrames:
    def test_bit_exact_roundtrip(self):
        rng = np.random.default_rng(5)
        vec = rng.standard_normal(257)
        back, version = vector_from_frame_bytes(vector_to_frame_bytes(vec, 9))
        assert version == 9
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, vec)

    def test_returned_array_is_writable(self):
        vec = np.arange(8, dtype=np.float64)
        back, _ = vector_from_frame_bytes(vector_to_frame_bytes(vec))
        back[0] = -1.0  # must not raise: the array owns its memory

    def test_wrong_codec_refused(self):
        frame = Frame(codec_id=7, flags=0, dim=0, model_version=0, payload=b"blob")
        with pytest.raises(FrameError):
            vector_from_frame_bytes(frame.to_bytes())

    def test_payload_cap_enforced(self):
        from repro.wire import FrameOversized

        buf = vector_to_frame_bytes(np.zeros(64))
        with pytest.raises(FrameOversized):
            vector_from_frame_bytes(buf, max_payload_nbytes=32)


class TestReplyCache:
    def test_exactly_once_lookup(self):
        cache = ReplyCache()
        assert cache.get(1) is None
        cache.put(1, {"serial": 1, "ok": True, "value": {}})
        assert cache.get(1) == {"serial": 1, "ok": True, "value": {}}

    def test_eviction_is_fifo_and_bounded(self):
        cache = ReplyCache(cap=3)
        for serial in range(5):
            cache.put(serial, {"serial": serial})
        assert cache.get(0) is None
        assert cache.get(1) is None
        assert [cache.get(s)["serial"] for s in (2, 3, 4)] == [2, 3, 4]

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            ReplyCache(cap=0)
