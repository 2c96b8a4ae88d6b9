"""Wire codec of the worker-resident backends: zero-copy ndarray framing.

Every cycle, the resident backends (``persistent`` and ``sharded``, over
one socket transport) ship each slot one ``("fold", _WireFoldBatch)``
message whose bulk is the weights table — O(weights) per slot per cycle
— and get back one partial aggregate.  Helios re-aggregates the global
model every cycle, so
every tensor of a dispatch differs from the previous one: there is
nothing to skip and no link in the repo slow enough to pay for packing,
so the arrays travel as they are.

A codec frame is *not* one monolithic pickle.  The message skeleton
(dataclasses, dicts, scalars) is pickled with protocol 5 and every
contiguous ndarray travels **out-of-band** as a raw ``(dtype, shape,
buffer)`` segment: encoding collects :class:`pickle.PickleBuffer` views
of the arrays' memory — no intermediate copies — and the transport writes
the segments straight to the wire (vectored ``sendmsg`` on sockets).
Decoding hands ``pickle.loads`` memoryview slices of the receive buffer,
so arrays are reconstructed as views as well.  A frame is self-contained:
decoding it needs no state from earlier frames.

Frame layout (the payload inside the transport's length-prefixed frame)::

    byte 0      magic 0xEC  (the only payload format on the shard wire:
                             a payload starting otherwise is refused
                             before anything is unpickled)
    byte 1      codec version
    byte 2      reserved (0)
    byte 3      reserved (0)
    bytes 4:8   u32 segment count N
    N × 5 bytes u32 segment length | u8 flags (must be 0)
    ...         the N segments, back to back
    segment 0   the protocol-5 skeleton pickle: ``(kind, payload)``
    segments 1+ out-of-band ndarray buffers, in pickling order

Segment flags ``0x01`` and ``0x02`` and a non-zero byte 2 belonged to
codec version 1 and are retired — a decoder rejects them, do not reuse
them.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, Tuple

__all__ = [
    "CODEC_VERSION",
    "CODEC_MAGIC",
    "WIRE_KINDS",
    "KIND_HELLO",
    "KIND_HELLO_ACK",
    "KIND_PING",
    "KIND_PONG",
    "KIND_SHUTDOWN",
    "KIND_FOLD",
    "KIND_VFOLD",
    "KIND_RESULTS",
    "KIND_ERROR",
    "CodecError",
    "EncodedFrame",
    "encode_message",
    "decode_message",
]

#: Version of the codec frame layout, carried in byte 1 of every frame.
CODEC_VERSION = 2

#: First byte of every frame payload on the shard wire.
CODEC_MAGIC = 0xEC

# --------------------------------------------------------------------- #
# wire-kind registry
# --------------------------------------------------------------------- #
# Every ``(kind, payload)`` message the worker-resident backends speak,
# across all three layers (this codec, the transport's shard server, the
# executor's dispatch and request handler).  The constants are the spelling
# the layers must use — ``repro lint``'s wire-kind checker cross-checks
# every usage site against :data:`WIRE_KINDS`, so a kind added in one
# layer but not registered here (or deleted here while still spoken
# anywhere) fails CI instead of surfacing as a runtime
# ``MalformedMessageError``.

KIND_HELLO = "hello"          # connection opener (parent -> shard)
KIND_HELLO_ACK = "hello-ack"  # handshake answer (shard -> parent)
KIND_PING = "ping"            # liveness probe, answered inline
KIND_PONG = "pong"            # probe answer
KIND_SHUTDOWN = "shutdown"    # stop serving (sent to local slots on close)
KIND_FOLD = "fold"            # train + fold in-shard (hierarchical)
KIND_VFOLD = "vfold"          # build/train/fold a virtual-client span
KIND_RESULTS = "results"      # batch reply (fold/vfold)
KIND_ERROR = "error"          # any failure reply (carries the exception)

#: Canonical kind -> role table.  Roles: ``control`` messages are
#: answered inline by the serving loop (or consumed without a reply),
#: ``request`` messages get exactly one heavy reply, ``reply`` kinds
#: only ever travel shard/worker -> parent.
WIRE_KINDS: Dict[str, str] = {
    KIND_HELLO: "control",
    KIND_HELLO_ACK: "reply",
    KIND_PING: "control",
    KIND_PONG: "reply",
    KIND_SHUTDOWN: "control",
    KIND_FOLD: "request",
    KIND_VFOLD: "request",
    KIND_RESULTS: "reply",
    KIND_ERROR: "reply",
}

#: Pickle protocol of the skeleton.  Out-of-band buffers need >= 5.
_PICKLE_PROTOCOL = 5

_HEADER = struct.Struct(">BBBBI")
_SEGMENT_ENTRY = struct.Struct(">IB")


class CodecError(RuntimeError):
    """A codec frame could not be decoded (malformed or unsupported)."""


# --------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------- #

class EncodedFrame:
    """One encoded message, ready for the transport.

    ``segments`` are the raw buffers to write after the frame header
    (memoryviews where encoding was zero-copy).  ``skeleton_bytes`` /
    ``array_bytes`` break the payload down for diagnostics —
    oversized-frame errors name them.
    """

    __slots__ = ("kind", "segments", "header", "skeleton_bytes",
                 "array_bytes")

    def __init__(self, kind: str, segments: List[Any], header: bytes,
                 skeleton_bytes: int, array_bytes: int) -> None:
        self.kind = kind
        self.segments = segments
        self.header = header
        self.skeleton_bytes = skeleton_bytes
        self.array_bytes = array_bytes

    @property
    def total_bytes(self) -> int:
        """Payload size on the wire (header + every segment)."""
        return len(self.header) + sum(len(segment)
                                      for segment in self.segments)

    def buffers(self) -> List[Any]:
        """Header + segments, in wire order (for vectored sends)."""
        return [self.header] + list(self.segments)

    def tobytes(self) -> bytes:
        """The frame as one contiguous payload (byte-count diagnostics).

        ``join`` consumes the segment memoryviews directly — one copy
        total, not one per segment plus the join.
        """
        return b"".join(self.buffers())

    def describe(self) -> str:
        """Size breakdown used by oversized-frame diagnostics."""
        return (f"{self.total_bytes} bytes: skeleton (specs/masks/"
                f"metadata) {self.skeleton_bytes} B + ndarray payload "
                f"(weights) {self.array_bytes} B in "
                f"{len(self.segments) - 1} segments")


def encode_message(message: Tuple[str, Any]) -> EncodedFrame:
    """Encode one ``(kind, payload)`` message into a codec frame."""
    kind, payload = message
    out_of_band: List[pickle.PickleBuffer] = []
    skeleton = pickle.dumps((kind, payload), _PICKLE_PROTOCOL,
                            buffer_callback=out_of_band.append)
    segments: List[Any] = [skeleton]
    segments.extend(buffer.raw() for buffer in out_of_band)
    header = bytearray(_HEADER.pack(CODEC_MAGIC, CODEC_VERSION, 0, 0,
                                    len(segments)))
    for segment in segments:
        header += _SEGMENT_ENTRY.pack(len(segment), 0)
    array_bytes = sum(len(segment) for segment in segments[1:])
    return EncodedFrame(kind, segments, bytes(header), len(skeleton),
                        array_bytes)


def decode_message(blob) -> Tuple[str, Any]:
    """Decode one codec frame payload into its ``(kind, payload)``.

    Decoding is zero-copy: array segments are handed to the unpickler as
    memoryview slices of ``blob`` (pass a writable buffer — e.g. a
    memoryview over a ``bytearray`` — to get writable arrays).  Raises
    :class:`CodecError` on a malformed frame; a payload that does not
    start with :data:`CODEC_MAGIC` is refused before anything is
    unpickled.
    """
    view = memoryview(blob)
    if view[:1] != bytes([CODEC_MAGIC]):
        raise CodecError(f"not a codec frame: the payload starts with "
                         f"{bytes(view[:1])!r}, not 0x{CODEC_MAGIC:02x}")
    try:
        _, version, reserved, _, count = _HEADER.unpack_from(view)
    except struct.error as exc:
        raise CodecError(f"truncated codec header: {exc}") from None
    if version != CODEC_VERSION:
        raise CodecError(f"unsupported codec version {version} "
                         f"(this side speaks {CODEC_VERSION})")
    if reserved:
        raise CodecError(f"reserved header byte 2 is 0x{reserved:02x}, "
                         f"expected 0")
    offset = _HEADER.size
    lengths: List[int] = []
    for _ in range(count):
        try:
            length, flags = _SEGMENT_ENTRY.unpack_from(view, offset)
        except struct.error as exc:
            raise CodecError(f"truncated segment table: {exc}") from None
        offset += _SEGMENT_ENTRY.size
        if flags:
            # Treating a flagged segment as a plain one would hand bytes
            # of another layout to the unpickler as array data.
            raise CodecError(f"segment {len(lengths)} carries unknown "
                             f"flag 0x{flags:02x}")
        lengths.append(length)
    segments: List[Any] = []
    for length in lengths:
        if offset + length > len(view):
            raise CodecError(
                f"segment of {length} bytes overruns the "
                f"{len(view)}-byte frame")
        segments.append(view[offset:offset + length])
        offset += length
    if offset != len(view):
        raise CodecError(f"{len(view) - offset} trailing bytes after the "
                         f"last segment")
    if not segments:
        raise CodecError("codec frame carries no segments")
    try:
        obj = pickle.loads(segments[0], buffers=iter(segments[1:]))
    except Exception as exc:
        raise CodecError(f"codec skeleton does not unpickle: "
                         f"{exc}") from None
    if (not isinstance(obj, tuple) or len(obj) != 2
            or not isinstance(obj[0], str)):
        raise CodecError(f"expected a (kind, payload) tuple, "
                         f"got {type(obj).__name__}")
    return obj
