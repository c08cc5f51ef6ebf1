"""The versioned binary frame every payload travels in.

Frame layout (little-endian, 24-byte fixed header)::

    offset  size  field
    ------  ----  --------------------------------------------
         0     4  magic            b"RPWF"
         4     1  wire version     currently 1
         5     1  codec id         see repro.wire.codecs
         6     1  flags            codec-specific parameter byte
         7     1  reserved         must be zero
         8     4  dim              uint32, vector dimensionality
        12     4  model version    uint32, server model version
        16     4  payload length   uint32, bytes after the header
        20     4  CRC-32           of the payload bytes only
        24     …  payload          codec-specific encoding

The CRC covers the payload, so a bit flipped in transit is detected at
decode time (:meth:`Frame.from_bytes` raises
:class:`FrameCorruptionError`) — this is what turns the simulator's
``bitflip`` corruption fault into an observable ``corrupt_frame``
rejection instead of a silent numeric perturbation.

Versioning: decoders accept exactly the versions they know
(``version <= WIRE_VERSION``); an unknown magic or future version is a
:class:`FrameError`, never a silent reinterpretation.

Stream hardening: a decoder fed attacker-shaped or line-damaged bytes
must fail *typed* and fail *before* allocating.  The declared payload
length is bounds-checked against ``max_payload_nbytes``
(:class:`FrameOversized`) before any payload buffer exists, and a
buffer or stream that ends early raises :class:`FrameTruncated` —
never a raw ``struct.error`` or ``MemoryError``.  :func:`read_frame`
applies both checks while reading a frame off a byte stream (the
socket transport's receive path).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "FRAME_OVERHEAD",
    "BLOB_CODEC_ID",
    "MAX_PAYLOAD_NBYTES",
    "Frame",
    "FrameError",
    "FrameCorruptionError",
    "FrameTruncated",
    "FrameOversized",
    "read_frame",
    "seal",
    "unseal",
]

MAGIC = b"RPWF"
WIRE_VERSION = 1

# magic, version, codec id, flags, reserved, dim, model version,
# payload length, payload CRC-32.
_HEADER = struct.Struct("<4sBBBBIIII")
FRAME_OVERHEAD = _HEADER.size  # 24 bytes

# Codec id used by :func:`seal` for opaque byte envelopes (snapshots).
BLOB_CODEC_ID = 7

# Default cap on a declared payload length.  A garbage header can
# claim up to 4 GiB; refusing anything above this bound *before*
# allocating keeps one damaged stream from taking the server down.
# 256 MiB comfortably covers every model and pickled setup bundle in
# the repo while staying far below typical container memory limits.
MAX_PAYLOAD_NBYTES = 256 * 1024 * 1024

_U32_MAX = 2**32 - 1


class FrameError(ValueError):
    """A buffer is not a decodable frame (bad magic/version/shape)."""


class FrameCorruptionError(FrameError):
    """The header parsed but the payload fails its CRC-32 check."""


class FrameTruncated(FrameError):
    """The buffer or stream ended before the declared frame did."""


class FrameOversized(FrameError):
    """The header declares a payload above the ``max_payload_nbytes`` cap."""


@dataclass(frozen=True)
class Frame:
    """One encoded payload plus the header metadata that travels with it."""

    codec_id: int
    flags: int
    dim: int
    model_version: int
    payload: bytes
    version: int = WIRE_VERSION
    crc32: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.codec_id <= 255:
            raise FrameError(f"codec_id {self.codec_id} out of byte range")
        if not 0 <= self.flags <= 255:
            raise FrameError(f"flags {self.flags} out of byte range")
        if not 0 <= self.version <= 255:
            raise FrameError(f"version {self.version} out of byte range")
        if not 0 <= self.dim <= _U32_MAX:
            raise FrameError(f"dim {self.dim} out of uint32 range")
        if not 0 <= self.model_version <= _U32_MAX:
            raise FrameError(f"model_version {self.model_version} out of uint32 range")
        if len(self.payload) > _U32_MAX:
            raise FrameError("payload too large for a uint32 length field")
        object.__setattr__(self, "payload", bytes(self.payload))
        object.__setattr__(self, "crc32", zlib.crc32(self.payload) & 0xFFFFFFFF)

    @property
    def payload_nbytes(self) -> int:
        """Payload length in bytes — the analytic-model-comparable size."""
        return len(self.payload)

    def __len__(self) -> int:
        """Total on-the-wire size: header plus payload."""
        return FRAME_OVERHEAD + len(self.payload)

    def to_bytes(self) -> bytes:
        """Serialise header + payload into one contiguous buffer."""
        header = _HEADER.pack(
            MAGIC,
            self.version,
            self.codec_id,
            self.flags,
            0,
            self.dim,
            self.model_version,
            len(self.payload),
            self.crc32,
        )
        return header + self.payload

    @classmethod
    def from_bytes(
        cls,
        buf: bytes | bytearray | memoryview,
        max_payload_nbytes: int | None = None,
    ) -> "Frame":
        """Parse and integrity-check one frame.

        Raises :class:`FrameTruncated` on a buffer that ends before the
        declared frame does, :class:`FrameOversized` when the declared
        payload length exceeds ``max_payload_nbytes`` (checked before
        the payload is sliced), plain :class:`FrameError` on any other
        malformation (bad magic, unknown version, trailing bytes), and
        :class:`FrameCorruptionError` when the payload CRC does not
        match the header — the signature of in-flight bit corruption.
        """
        buf = bytes(buf)
        if len(buf) < FRAME_OVERHEAD:
            raise FrameTruncated(
                f"buffer of {len(buf)} bytes is shorter than a frame header"
            )
        codec_id, flags, version, dim, model_version, length, crc = _parse_header(
            buf[:FRAME_OVERHEAD], max_payload_nbytes
        )
        payload = buf[FRAME_OVERHEAD:]
        if len(payload) < length:
            raise FrameTruncated(
                f"payload length field says {length} bytes, buffer has {len(payload)}"
            )
        if len(payload) > length:
            raise FrameError(
                f"payload length field says {length} bytes, buffer has {len(payload)}"
            )
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise FrameCorruptionError(
                f"payload CRC mismatch (header {crc:#010x})"
            )
        return cls(
            codec_id=codec_id,
            flags=flags,
            dim=dim,
            model_version=model_version,
            payload=payload,
            version=version,
        )


def _parse_header(
    header: bytes, max_payload_nbytes: int | None
) -> tuple[int, int, int, int, int, int, int]:
    """Validate a 24-byte header; returns the decoded fields.

    The declared payload length is checked against the cap *here*, so
    both buffer and stream decoders refuse an oversized frame before a
    payload buffer is ever allocated.
    """
    magic, version, codec_id, flags, reserved, dim, model_version, length, crc = (
        _HEADER.unpack(header)
    )
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r} (want {MAGIC!r})")
    if not 1 <= version <= WIRE_VERSION:
        raise FrameError(f"unsupported wire version {version}")
    if reserved != 0:
        raise FrameError(f"reserved header byte is {reserved}, not zero")
    if max_payload_nbytes is not None and length > max_payload_nbytes:
        raise FrameOversized(
            f"declared payload of {length} bytes exceeds the "
            f"{max_payload_nbytes}-byte cap"
        )
    return codec_id, flags, version, dim, model_version, length, crc


def read_frame(
    read: Callable[[int], bytes],
    max_payload_nbytes: int | None = MAX_PAYLOAD_NBYTES,
) -> Frame:
    """Read exactly one frame off a byte stream.

    ``read(n)`` must return *up to* ``n`` bytes (a socket ``recv`` or
    file ``read``); an empty return means end of stream.  The header is
    read and validated — including the ``max_payload_nbytes`` bound —
    before the payload buffer is requested, so a garbage length field
    can never trigger a giant allocation.  A stream that ends mid-frame
    raises :class:`FrameTruncated`; CRC failures raise
    :class:`FrameCorruptionError` exactly as :meth:`Frame.from_bytes`.
    """
    header = _read_exactly(read, FRAME_OVERHEAD, "frame header")
    codec_id, flags, version, dim, model_version, length, crc = _parse_header(
        header, max_payload_nbytes
    )
    payload = _read_exactly(read, length, "frame payload") if length else b""
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameCorruptionError(f"payload CRC mismatch (header {crc:#010x})")
    return Frame(
        codec_id=codec_id,
        flags=flags,
        dim=dim,
        model_version=model_version,
        payload=payload,
        version=version,
    )


def _read_exactly(read: Callable[[int], bytes], n: int, what: str) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = read(remaining)
        if not chunk:
            got = n - remaining
            raise FrameTruncated(f"stream ended after {got}/{n} bytes of {what}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def seal(data: bytes, model_version: int = 0) -> bytes:
    """Wrap opaque bytes (e.g. a snapshot pickle) in a CRC'd frame."""
    frame = Frame(
        codec_id=BLOB_CODEC_ID,
        flags=0,
        dim=0,
        model_version=model_version,
        payload=data,
    )
    return frame.to_bytes()


def unseal(buf: bytes) -> bytes:
    """Verify a :func:`seal` envelope and return the enclosed bytes.

    Raises :class:`FrameError` (or :class:`FrameCorruptionError` on a
    CRC mismatch); no caller falls back to reading the bytes unchecked.
    """
    frame = Frame.from_bytes(buf)
    if frame.codec_id != BLOB_CODEC_ID:
        raise FrameError(
            f"expected a sealed blob (codec {BLOB_CODEC_ID}), got codec {frame.codec_id}"
        )
    return frame.payload
