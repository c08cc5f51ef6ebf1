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
from typing import Any, Callable

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
    """One encoded payload plus the header metadata that travels with it.

    A frame *is* its wire bytes: one header + payload buffer, which
    :meth:`to_bytes` hands back as is and into which ``payload`` is a
    read-only view.  The constructor copies the payload it is given
    into a fresh buffer; :meth:`over` and :meth:`from_bytes` adopt the
    caller's buffer without copying, so it must not be written to
    afterwards.  ``crc32`` is computed (or, on the receive side,
    checked) in exactly one pass over the payload.
    """

    codec_id: int
    flags: int
    dim: int
    model_version: int
    payload: memoryview = field(hash=False)  # crc32 stands in for it
    version: int = WIRE_VERSION
    crc32: int = field(init=False)
    _wire: bytes | bytearray | memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        wire = bytearray(FRAME_OVERHEAD + len(self.payload))
        wire[FRAME_OVERHEAD:] = self.payload
        self.__dict__.update(
            _pack(wire, self.codec_id, self.flags, self.dim, self.model_version, self.version)
        )

    @classmethod
    def over(
        cls, wire: bytearray, codec_id: int, flags: int, dim: int, model_version: int
    ) -> "Frame":
        """Frame ``wire`` in place: its payload region (everything from
        ``FRAME_OVERHEAD`` on) is already written, the header is not."""
        frame = object.__new__(cls)
        frame.__dict__.update(
            _pack(wire, codec_id, flags, dim, model_version, WIRE_VERSION)
        )
        return frame

    def __reduce__(self):
        return _revive, (bytes(self._wire),)

    @property
    def payload_nbytes(self) -> int:
        """Payload length in bytes — the analytic-model-comparable size."""
        return len(self.payload)

    def __len__(self) -> int:
        """Total on-the-wire size: header plus payload."""
        return len(self._wire)

    def to_bytes(self) -> bytes | bytearray | memoryview:
        """The frame's one header + payload buffer (not a copy)."""
        return self._wire

    @classmethod
    def from_bytes(
        cls,
        buf: bytes | bytearray | memoryview,
        max_payload_nbytes: int | None = None,
    ) -> "Frame":
        """Parse and integrity-check one frame, as a view over ``buf``.

        Raises :class:`FrameTruncated` on a buffer that ends before the
        declared frame does, :class:`FrameOversized` when the declared
        payload length exceeds ``max_payload_nbytes`` (checked before
        the payload is touched), plain :class:`FrameError` on any other
        malformation (bad magic, unknown version, trailing bytes), and
        :class:`FrameCorruptionError` when the payload CRC does not
        match the header — the signature of in-flight bit corruption.
        """
        have = len(buf) - FRAME_OVERHEAD
        if have < 0:
            raise FrameTruncated(
                f"buffer of {len(buf)} bytes is shorter than a frame header"
            )
        fields, length = _parse_header(buf, max_payload_nbytes)
        if have != length:
            raise (FrameTruncated if have < length else FrameError)(
                f"payload length field says {length} bytes, buffer has {have}"
            )
        return _checked(buf, fields)


def _pack(
    wire: bytearray, codec_id: int, flags: int, dim: int, model_version: int, version: int
) -> dict[str, Any]:
    """CRC ``wire``'s payload region (the sender's one pass) and pack the
    header in front of it; returns the attributes of the frame over it."""
    payload = memoryview(wire).toreadonly()[FRAME_OVERHEAD:]
    crc = zlib.crc32(payload)
    try:
        _HEADER.pack_into(
            wire, 0, MAGIC, version, codec_id, flags, 0,
            dim, model_version, len(payload), crc,
        )
    except struct.error as exc:  # a byte field above 255, a uint32 field above 2**32 - 1
        raise FrameError(f"frame field does not fit the header: {exc}") from None
    return dict(codec_id=codec_id, flags=flags, dim=dim, model_version=model_version,
                payload=payload, version=version, crc32=crc, _wire=wire)


def _parse_header(
    wire: bytes | bytearray | memoryview, max_payload_nbytes: int | None
) -> tuple[dict[str, int], int]:
    """Validate the 24-byte header leading ``wire``; returns the frame
    fields it holds and the payload length it declares.

    The declared payload length is checked against the cap *here*, so
    both buffer and stream decoders refuse an oversized frame before a
    payload buffer is ever allocated.
    """
    magic, version, codec_id, flags, reserved, dim, model_version, length, crc = (
        _HEADER.unpack_from(wire)
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
    fields = dict(codec_id=codec_id, flags=flags, dim=dim, model_version=model_version,
                  version=version, crc32=crc)
    return fields, length


def _checked(wire: bytes | bytearray | memoryview, fields: dict[str, int]) -> Frame:
    """The frame over ``wire`` (one whole frame whose header parsed to
    ``fields``): the single CRC pass every received payload gets."""
    payload = memoryview(wire).toreadonly()[FRAME_OVERHEAD:]
    if zlib.crc32(payload) != fields["crc32"]:
        raise FrameCorruptionError(f"payload CRC mismatch (header {fields['crc32']:#010x})")
    frame = object.__new__(Frame)
    frame.__dict__.update(fields, payload=payload, _wire=wire)
    return frame


def _revive(wire: bytes) -> Frame:
    return _checked(wire, _parse_header(wire, None)[0])


def read_frame(
    read: Callable[[int], bytes],
    max_payload_nbytes: int | None = MAX_PAYLOAD_NBYTES,
) -> Frame:
    """Read exactly one frame off a byte stream.

    ``read(n)`` must return *up to* ``n`` bytes (a socket ``recv`` or
    file ``read``); an empty return means end of stream.  The header is
    read and validated — including the ``max_payload_nbytes`` bound —
    before the frame buffer is allocated, so a garbage length field
    can never trigger a giant allocation.  A stream that ends mid-frame
    raises :class:`FrameTruncated`; CRC failures raise
    :class:`FrameCorruptionError` exactly as :meth:`Frame.from_bytes`.
    """
    header = bytearray(FRAME_OVERHEAD)
    _read_into(read, memoryview(header), "frame header")
    fields, length = _parse_header(header, max_payload_nbytes)
    wire = bytearray(FRAME_OVERHEAD + length)
    wire[:FRAME_OVERHEAD] = header
    _read_into(read, memoryview(wire)[FRAME_OVERHEAD:], "frame payload")
    return _checked(wire, fields)


def _read_into(read: Callable[[int], bytes], view: memoryview, what: str) -> None:
    got = 0
    while got < len(view):
        chunk = read(len(view) - got)
        if not chunk:
            raise FrameTruncated(
                f"stream ended after {got}/{len(view)} bytes of {what}"
            )
        view[got : got + len(chunk)] = chunk
        got += len(chunk)


def seal(data: bytes, model_version: int = 0) -> bytearray:
    """Wrap opaque bytes (e.g. a snapshot pickle) in a CRC'd frame."""
    frame = Frame(
        codec_id=BLOB_CODEC_ID,
        flags=0,
        dim=0,
        model_version=model_version,
        payload=data,
    )
    return frame.to_bytes()


def unseal(sealed: Frame | bytes | bytearray | memoryview) -> memoryview:
    """Verify a :func:`seal` envelope and return the enclosed bytes.

    ``sealed`` is the envelope's bytes, or the :class:`Frame` that
    :func:`read_frame` already verified.  Raises :class:`FrameError` (or
    :class:`FrameCorruptionError` on a CRC mismatch); no caller falls
    back to reading the bytes unchecked.
    """
    frame = sealed if isinstance(sealed, Frame) else Frame.from_bytes(sealed)
    if frame.codec_id != BLOB_CODEC_ID:
        raise FrameError(
            f"expected a sealed blob (codec {BLOB_CODEC_ID}), got codec {frame.codec_id}"
        )
    return frame.payload
