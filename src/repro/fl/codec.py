"""Wire codec of the worker-resident backends: delta + zero-copy framing.

Every cycle, the resident backends (``persistent`` pipes, ``sharded``
sockets) ship each slot one ``("run", _WireBatch)`` message whose bulk is
the weights table — O(weights) per slot per cycle.  This module cuts that
cost on two independent axes:

Zero-copy ndarray framing
-------------------------
A codec frame is *not* one monolithic pickle.  The message skeleton
(dataclasses, dicts, scalars) is pickled with protocol 5 and every
contiguous ndarray travels **out-of-band** as a raw ``(dtype, shape,
buffer)`` segment: encoding collects :class:`pickle.PickleBuffer` views
of the arrays' memory — no intermediate copies — and the transport writes
the segments straight to the wire (vectored ``sendmsg`` on sockets).
Decoding hands ``pickle.loads`` memoryview slices of the receive buffer,
so arrays are reconstructed as views as well.

Frame layout (the payload inside the transport's length-prefixed frame)::

    byte 0      magic 0xEC  (plain pickles start with 0x80 — the codec
                             and the legacy format coexist on one wire)
    byte 1      codec version
    byte 2      compression algorithm id (0 = none, 1 = zlib)
    byte 3      reserved (0)
    bytes 4:8   u32 segment count N
    N × 5 bytes u32 stored segment length | u8 flags (bit 0: compressed)
    ...         the N segments, back to back
    segment 0   the protocol-5 skeleton pickle:
                ``(kind, payload, delta_table_or_None)``
    segments 1+ out-of-band ndarray buffers, in pickling order

Per-segment compression (``compression="zlib"``) is applied to any
segment it actually shrinks; small or incompressible segments stay raw,
so the flag can never make a frame bigger than the uncompressed layout
(beyond the 5-byte table entry it already pays).

Delta shipping
--------------
The encoder side of a slot keeps the last weights table entry the peer
*acknowledged* (:class:`DeltaEncoderState`); the decoder side mirrors it
(:class:`DeltaDecoderState`).  A ``run`` message's weights table is then
shipped as per-parameter deltas against that base:

* ``skip`` — the parameter is bit-identical to the base: only its name
  travels (the changed-parameter bitmap of the classic scheme);
* ``xor``  — same dtype/shape but different bits: the byte-wise XOR
  against the base travels.  XOR of adjacent training snapshots zeroes
  the bytes that did not move (sign, exponent, high mantissa), which is
  exactly what ``zlib`` then folds away — so XOR mode is only chosen
  when per-segment compression is on (an uncompressed XOR is as large
  as the raw array);
* ``full`` — first contact, shape/dtype change, or non-contiguous
  array: the raw array travels (still zero-copy when contiguous).

Reconstruction is *bit-exact* by construction (XOR is an involution and
``skip`` reuses the decoder's base arrays), so delta shipping cannot
perturb the backends' bit-identical-histories guarantee.

Base synchronization is sequence-checked: every delta names the
``base_seq`` it was computed against, the decoder refuses a delta whose
base it does not hold (:class:`DeltaBaseMismatchError`) and the backend
falls back to a full snapshot.  Encoders additionally only *commit* a
new base once the peer's reply arrived, and drop the base entirely on
any transport failure or reconnect — a reconnecting or failed-over slot
always restarts from a full snapshot.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CODEC_VERSION",
    "CODEC_MAGIC",
    "COMPRESSIONS",
    "WIRE_KINDS",
    "DELTA_KINDS",
    "KIND_HELLO",
    "KIND_HELLO_ACK",
    "KIND_PING",
    "KIND_PONG",
    "KIND_BYE",
    "KIND_SHUTDOWN",
    "KIND_CLOSE",
    "KIND_RUN",
    "KIND_FOLD",
    "KIND_VFOLD",
    "KIND_MAP",
    "KIND_RESULTS",
    "KIND_OK",
    "KIND_ERROR",
    "CodecError",
    "DeltaBaseMismatchError",
    "DeltaEncoderState",
    "DeltaDecoderState",
    "EncodedFrame",
    "encode_message",
    "decode_message",
    "is_codec_frame",
    "negotiate_compression",
]

#: Version of the codec frame layout; negotiated in the hello handshake.
CODEC_VERSION = 1

#: First byte of every codec frame.  Pickle protocol 2+ streams start
#: with ``0x80``, so one byte tells the two formats apart on the wire.
CODEC_MAGIC = 0xEC

#: Supported per-segment compression algorithms, in preference order.
COMPRESSIONS = ("none", "zlib")

# --------------------------------------------------------------------- #
# wire-kind registry
# --------------------------------------------------------------------- #
# Every ``(kind, payload)`` message the worker-resident backends speak,
# across all three layers (this codec, the transport's shard server, the
# executor's dispatch and worker loops).  The constants are the spelling
# the layers must use — ``repro lint``'s wire-kind checker cross-checks
# every usage site against :data:`WIRE_KINDS`, so a kind added in one
# layer but not registered here (or deleted here while still spoken
# anywhere) fails CI instead of surfacing as a runtime
# ``MalformedMessageError``.

KIND_HELLO = "hello"          # connection opener (parent -> shard)
KIND_HELLO_ACK = "hello-ack"  # handshake answer (shard -> parent)
KIND_PING = "ping"            # liveness probe, answered inline
KIND_PONG = "pong"            # probe answer
KIND_BYE = "bye"              # polite session end (external shards)
KIND_SHUTDOWN = "shutdown"    # stop serving (auto-spawned shards)
KIND_CLOSE = "close"          # stop a pipe worker (persistent backend)
KIND_RUN = "run"              # train a wire batch of resident clients
KIND_FOLD = "fold"            # train + fold in-shard (hierarchical)
KIND_VFOLD = "vfold"          # build/train/fold a virtual-client span
KIND_MAP = "map"              # generic function map over items
KIND_RESULTS = "results"      # batch reply (run/fold/vfold)
KIND_OK = "ok"                # map reply
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
    KIND_BYE: "control",
    KIND_SHUTDOWN: "control",
    KIND_CLOSE: "control",
    KIND_RUN: "request",
    KIND_FOLD: "request",
    KIND_VFOLD: "request",
    KIND_MAP: "request",
    KIND_RESULTS: "reply",
    KIND_OK: "reply",
    KIND_ERROR: "reply",
}

#: Kinds whose payload carries a ``weights_table`` eligible for delta
#: encoding against the slot's acknowledged base (see module docs).
DELTA_KINDS = frozenset((KIND_RUN, KIND_FOLD, KIND_VFOLD))

#: Compression algorithm ids as stored in frame byte 2.
_COMPRESSION_IDS = {"none": 0, "zlib": 1}
_COMPRESSION_NAMES = {value: key for key, value in _COMPRESSION_IDS.items()}

#: zlib level of the hot path: 1 trades a few percent of ratio for
#: several-fold faster compression — the codec sits in every cycle's
#: dispatch, so encode speed matters more than the last byte.
_ZLIB_LEVEL = 1

#: Segments smaller than this are never compressed (zlib's header alone
#: would eat the win, and tiny segments are metadata, not weights).
_MIN_COMPRESS_BYTES = 128

#: Pickle protocol of the skeleton.  Out-of-band buffers need >= 5.
_PICKLE_PROTOCOL = 5

_HEADER = struct.Struct(">BBBBI")
_SEGMENT_ENTRY = struct.Struct(">IB")

_FLAG_COMPRESSED = 0x01


class CodecError(RuntimeError):
    """A codec frame could not be decoded (malformed or unsupported)."""


class DeltaBaseMismatchError(CodecError):
    """A delta-encoded weights table referenced a base the decoder lacks.

    Recoverable by protocol: the decoder reports it instead of applying
    the delta, and the encoder re-sends the batch as a full snapshot.
    """


def is_codec_frame(blob) -> bool:
    """Whether a payload is a codec frame (vs. a plain pickle)."""
    if len(blob) == 0:
        return False
    first = blob[0]
    if isinstance(first, (bytes, bytearray)):  # pragma: no cover - py2 relic
        first = first[0]
    return first == CODEC_MAGIC


def negotiate_compression(requested: Any) -> str:
    """The compression a peer's hello gets: requested if supported.

    Unknown or malformed requests degrade to ``"none"`` rather than
    failing the handshake — compression is an optimization, not a
    compatibility requirement.
    """
    return requested if requested in COMPRESSIONS else "none"


# --------------------------------------------------------------------- #
# delta state
# --------------------------------------------------------------------- #

class DeltaEncoderState:
    """Encoder-side half of one slot's delta channel.

    ``base`` is the weights mapping the peer is known to hold (``None``
    until the first committed batch, and again after any failure), and
    ``seq`` the monotonically growing sequence number the peer last
    acknowledged holding.  :func:`encode_message` never mutates the
    state — the backend calls :meth:`commit` only once the peer's reply
    proves the frame was decoded, and :meth:`reset` on any transport
    failure, reconnect or close, which forces the next batch back to a
    full snapshot.
    """

    def __init__(self) -> None:
        self.base: Optional[Dict[str, np.ndarray]] = None
        self.seq = 0

    def commit(self, base: Optional[Dict[str, np.ndarray]],
               seq: Optional[int],
               array_cache: Optional[Dict[int, np.ndarray]] = None) -> None:
        """Adopt the base/seq a successfully answered frame established.

        The base arrays are *copied*: the encoder's view of what the
        peer holds must stay frozen even if the caller later mutates the
        snapshot arrays in place.  ``array_cache`` (id(source) → frozen
        copy) lets a caller committing the same shared snapshot into
        several slots pay for each array copy once — the cache must not
        outlive the batch that owns the source arrays.
        """
        if seq is None:
            return
        if base is not None:
            if array_cache is None:
                self.base = {name: np.array(value, copy=True)
                             for name, value in base.items()}
            else:
                # get-then-copy, not setdefault: setdefault would build
                # the copy before the lookup and discard it on a hit,
                # re-introducing the per-slot O(weights) work this
                # cache exists to share.
                frozen = {}
                for name, value in base.items():
                    cached = array_cache.get(id(value))
                    if cached is None:
                        cached = np.array(value, copy=True)
                        array_cache[id(value)] = cached
                    frozen[name] = cached
                self.base = frozen
        self.seq = seq

    def reset(self) -> None:
        """Forget the base; the next encode ships a full snapshot."""
        self.base = None


class DeltaDecoderState:
    """Decoder-side half: the base the *encoder* believes we hold."""

    def __init__(self) -> None:
        self.base: Optional[Dict[str, np.ndarray]] = None
        self.seq = 0


# --------------------------------------------------------------------- #
# delta encoding of one weights table
# --------------------------------------------------------------------- #

#: Per-parameter wire modes.
_MODE_SKIP = 0   # bit-identical to the base: nothing travels
_MODE_XOR = 1    # same dtype/shape: byte-wise XOR against the base
_MODE_FULL = 2   # raw array (first contact / shape change / fallback)


class _DeltaTable:
    """Wire form of a weights table (picklable, arrays out-of-band).

    ``entries`` mirrors the table: one list per table entry, each item a
    ``(name, mode, array_or_meta)`` triple where ``array_or_meta`` is
    ``None`` for ``skip``, the raw ndarray for ``full``, and ``(dtype
    string, shape, order, xor ndarray)`` for ``xor``.  ``base_seq`` is
    ``None`` for a table that needs no decoder base (all-full).
    """

    __slots__ = ("base_seq", "new_seq", "entries")

    def __init__(self, base_seq: Optional[int], new_seq: int,
                 entries: List[List[Tuple]]) -> None:
        self.base_seq = base_seq
        self.new_seq = new_seq
        self.entries = entries

    def __reduce__(self):
        return (_DeltaTable, (self.base_seq, self.new_seq, self.entries))


def _byte_view(array: np.ndarray) -> Optional[np.ndarray]:
    """Flat ``uint8`` view of an array's memory, or ``None``.

    Only contiguous numeric arrays have a stable, copy-free byte view;
    anything else (object dtypes, slices with gaps) falls back to
    ``full`` mode.
    """
    if array.dtype.hasobject:
        return None
    if array.flags.c_contiguous:
        pass
    elif array.flags.f_contiguous:
        array = array.T
    else:
        return None
    if array.size == 0:
        return array.view(np.uint8).reshape(-1)
    return array.reshape(-1).view(np.uint8)


def _array_order(array: np.ndarray) -> str:
    """Memory order tag stored with an ``xor`` entry."""
    if array.flags.c_contiguous:
        return "C"
    return "F"


def _encode_entry(value: np.ndarray, reference: Optional[np.ndarray],
                  prefer_xor: bool) -> Tuple[int, Any]:
    """``(mode, payload)`` of one parameter against its base array."""
    if (reference is None or reference.dtype != value.dtype
            or reference.shape != value.shape):
        return _MODE_FULL, value
    value_bytes = _byte_view(value)
    base_bytes = _byte_view(reference)
    if (value_bytes is None or base_bytes is None
            or _array_order(value) != _array_order(reference)):
        return _MODE_FULL, value
    delta = np.bitwise_xor(value_bytes, base_bytes)
    if not delta.any():
        return _MODE_SKIP, None
    if prefer_xor:
        return _MODE_XOR, (value.dtype.str, value.shape,
                           _array_order(value), delta)
    return _MODE_FULL, value


def _encode_table(table: Sequence[Dict[str, np.ndarray]],
                  state: DeltaEncoderState,
                  force_full: bool,
                  prefer_xor: bool,
                  delta_cache: Optional[Dict[Tuple[int, int], Tuple[int, Any]]]
                  = None) -> Tuple[_DeltaTable,
                                   Optional[Dict[str, np.ndarray]],
                                   int]:
    """Delta-encode one weights table against an encoder state.

    ``prefer_xor`` selects XOR mode for changed parameters — worth it
    only when per-segment compression runs afterwards (an uncompressed
    XOR is exactly as large as the raw array, plus metadata), so the
    uncompressed codec ships changed parameters raw.  ``delta_cache``
    ((id(value), id(base)) → (mode, payload)) dedups the O(weights)
    XOR/equality work when the same shared snapshot is encoded against
    the same base arrays for several slots; like ``commit``'s array
    cache it must not outlive the batch.  Returns ``(wire table,
    pending base, pending seq)``; the caller commits the pending pair
    into ``state`` only after the peer replied.
    """
    base = None if force_full else state.base
    new_seq = state.seq + 1
    entries: List[List[Tuple]] = []
    for snapshot in table:
        entry: List[Tuple] = []
        for name, value in snapshot.items():
            value = np.asarray(value)
            reference = base.get(name) if base is not None else None
            if delta_cache is None or reference is None:
                mode, payload = _encode_entry(value, reference, prefer_xor)
            else:
                key = (id(value), id(reference))
                cached = delta_cache.get(key)
                if cached is None:
                    cached = _encode_entry(value, reference, prefer_xor)
                    delta_cache[key] = cached
                mode, payload = cached
            entry.append((name, mode, payload))
        entries.append(entry)
    uses_base = any(mode in (_MODE_SKIP, _MODE_XOR)
                    for entry in entries for _, mode, _ in entry)
    wire = _DeltaTable(state.seq if uses_base else None, new_seq, entries)
    new_base = dict(table[0]) if table else None
    return wire, new_base, new_seq


def _decode_table(wire: _DeltaTable,
                  state: DeltaDecoderState) -> List[Dict[str, np.ndarray]]:
    """Reconstruct a weights table, committing the decoder state.

    Raises :class:`DeltaBaseMismatchError` — *before* touching the state
    — when the table references a base this decoder does not hold.
    """
    if wire.base_seq is not None:
        if state.base is None or state.seq != wire.base_seq:
            raise DeltaBaseMismatchError(
                f"delta batch was encoded against base seq {wire.base_seq}, "
                f"but this decoder holds "
                f"{state.seq if state.base is not None else 'no base'}")
    table: List[Dict[str, np.ndarray]] = []
    for entry in wire.entries:
        snapshot: Dict[str, np.ndarray] = {}
        for name, mode, payload in entry:
            if mode == _MODE_FULL:
                snapshot[name] = payload
            elif mode == _MODE_SKIP:
                base_value = (state.base.get(name)
                              if state.base is not None else None)
                if base_value is None:
                    raise DeltaBaseMismatchError(
                        f"delta batch skips parameter {name!r}, which the "
                        f"decoder's base does not hold")
                snapshot[name] = base_value
            elif mode == _MODE_XOR:
                dtype_str, shape, order, delta = payload
                base_value = (state.base.get(name)
                              if state.base is not None else None)
                base_bytes = (None if base_value is None
                              else _byte_view(base_value))
                if base_bytes is None or base_bytes.shape != delta.shape:
                    raise DeltaBaseMismatchError(
                        f"delta for parameter {name!r} does not match the "
                        f"decoder's base")
                raw = np.bitwise_xor(delta, base_bytes)
                array = raw.view(np.dtype(dtype_str))
                snapshot[name] = array.reshape(shape, order=order)
            else:
                raise CodecError(f"unknown delta mode {mode!r}")
        table.append(snapshot)
    if table:
        state.base = dict(table[0])
    state.seq = wire.new_seq
    return table


# --------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------- #

class EncodedFrame:
    """One encoded message, ready for the transport.

    ``segments`` are the raw buffers to write after the frame header
    (memoryviews where encoding was zero-copy).  ``pending_base`` /
    ``pending_seq`` carry the delta state the sender must commit once
    the peer acknowledged the frame (``None`` when no delta state was
    involved).  ``skeleton_bytes`` / ``array_bytes`` break the payload
    down for diagnostics — oversized-frame errors name them.
    """

    __slots__ = ("kind", "segments", "header", "pending_base",
                 "pending_seq", "skeleton_bytes", "array_bytes")

    def __init__(self, kind: str, segments: List[Any], header: bytes,
                 pending_base: Optional[Dict[str, np.ndarray]],
                 pending_seq: Optional[int], skeleton_bytes: int,
                 array_bytes: int) -> None:
        self.kind = kind
        self.segments = segments
        self.header = header
        self.pending_base = pending_base
        self.pending_seq = pending_seq
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
        """The frame as one contiguous payload (pipe transports).

        ``join`` consumes the segment memoryviews directly — one copy
        total, not one per segment plus the join.
        """
        return b"".join(self.buffers())

    def describe(self) -> str:
        """Size breakdown used by oversized-frame diagnostics."""
        return (f"{self.total_bytes} bytes: skeleton (specs/masks/"
                f"metadata) {self.skeleton_bytes} B + ndarray payload "
                f"(weights/deltas) {self.array_bytes} B in "
                f"{len(self.segments) - 1} segments")


def _strip_weights_table(payload: Any):
    """Detach ``payload.weights_table`` without mutating the original."""
    import copy

    stripped = copy.copy(payload)
    stripped.weights_table = None
    return stripped


def encode_message(message: Tuple[str, Any], *,
                   compression: str = "none",
                   delta_state: Optional[DeltaEncoderState] = None,
                   force_full: bool = False,
                   delta_cache: Optional[Dict] = None) -> EncodedFrame:
    """Encode one ``(kind, payload)`` message into a codec frame.

    With ``delta_state`` and a ``run`` payload carrying a
    ``weights_table``, the table is delta-encoded against the state (see
    module docs); ``force_full`` bypasses the base (the mismatch-recovery
    resend) and ``delta_cache`` shares the per-array delta work across
    several encodes of one batch (see :func:`_encode_table`).  The state
    itself is never mutated here — commit the returned frame's
    ``pending_base``/``pending_seq`` after the peer replied.
    """
    if compression not in COMPRESSIONS:
        raise ValueError(f"unknown wire compression {compression!r}; "
                         f"available: {COMPRESSIONS}")
    kind, payload = message
    table_wire = None
    pending_base: Optional[Dict[str, np.ndarray]] = None
    pending_seq: Optional[int] = None
    if (delta_state is not None and kind in DELTA_KINDS
            and getattr(payload, "weights_table", None) is not None):
        table_wire, pending_base, pending_seq = _encode_table(
            payload.weights_table, delta_state, force_full,
            prefer_xor=compression != "none", delta_cache=delta_cache)
        payload = _strip_weights_table(payload)
    out_of_band: List[pickle.PickleBuffer] = []
    skeleton = pickle.dumps((kind, payload, table_wire), _PICKLE_PROTOCOL,
                            buffer_callback=out_of_band.append)
    segments: List[Any] = [skeleton]
    segments.extend(buffer.raw() for buffer in out_of_band)
    entry_flags = bytearray(len(segments))
    compress = compression == "zlib"
    if compress:
        for index, segment in enumerate(segments):
            if len(segment) < _MIN_COMPRESS_BYTES:
                continue
            # zlib consumes the buffer protocol directly — no staging
            # copy of the (possibly O(weights)) segment.
            packed = zlib.compress(segment, _ZLIB_LEVEL)
            if len(packed) < len(segment):
                segments[index] = packed
                entry_flags[index] = _FLAG_COMPRESSED
    header = bytearray(_HEADER.pack(CODEC_MAGIC, CODEC_VERSION,
                                    _COMPRESSION_IDS[compression], 0,
                                    len(segments)))
    for segment, flags in zip(segments, entry_flags):
        header += _SEGMENT_ENTRY.pack(len(segment), flags)
    skeleton_bytes = len(segments[0])
    array_bytes = sum(len(segment) for segment in segments[1:])
    return EncodedFrame(kind, segments, bytes(header), pending_base,
                        pending_seq, skeleton_bytes, array_bytes)


def _validated_message(obj: Any) -> Tuple[str, Any]:
    if (not isinstance(obj, tuple) or len(obj) != 2
            or not isinstance(obj[0], str)):
        raise CodecError(f"expected a (kind, payload) tuple, "
                         f"got {type(obj).__name__}")
    return obj


def decode_message(blob, *,
                   delta_state: Optional[DeltaDecoderState] = None
                   ) -> Tuple[str, Any]:
    """Decode one frame payload (codec frame *or* plain pickle).

    Codec frames are decoded zero-copy: array segments are handed to the
    unpickler as memoryview slices of ``blob`` (pass a writable buffer —
    e.g. a memoryview over a ``bytearray`` — to get writable arrays).
    Plain pickles (legacy peers, control messages) fall through to
    ``pickle.loads``.  Raises :class:`CodecError` on malformed frames
    and :class:`DeltaBaseMismatchError` when a delta references a base
    ``delta_state`` does not hold.
    """
    if not is_codec_frame(blob):
        try:
            return _validated_message(pickle.loads(blob))
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"frame payload does not unpickle: "
                             f"{exc}") from None
    view = memoryview(blob)
    try:
        magic, version, compression_id, _, count = _HEADER.unpack_from(view)
    except struct.error as exc:
        raise CodecError(f"truncated codec header: {exc}") from None
    if version != CODEC_VERSION:
        raise CodecError(f"unsupported codec version {version} "
                         f"(this side speaks {CODEC_VERSION})")
    if compression_id not in _COMPRESSION_NAMES:
        raise CodecError(f"unknown compression id {compression_id}")
    offset = _HEADER.size
    entries = []
    for _ in range(count):
        try:
            length, flags = _SEGMENT_ENTRY.unpack_from(view, offset)
        except struct.error as exc:
            raise CodecError(f"truncated segment table: {exc}") from None
        offset += _SEGMENT_ENTRY.size
        if flags & ~_FLAG_COMPRESSED:
            # Treating an unknown flag as a plain segment would hand
            # bytes of another layout to the unpickler as array data.
            raise CodecError(
                f"segment {len(entries)} carries unknown flag "
                f"0x{flags & ~_FLAG_COMPRESSED:02x}")
        entries.append((length, flags))
    segments: List[Any] = []
    for length, flags in entries:
        if offset + length > len(view):
            raise CodecError(
                f"segment of {length} bytes overruns the "
                f"{len(view)}-byte frame")
        segment: Any = view[offset:offset + length]
        offset += length
        if flags & _FLAG_COMPRESSED:
            try:
                # bytearray keeps decompressed arrays writable, matching
                # the uncompressed path's behavior.
                segment = memoryview(bytearray(
                    zlib.decompress(bytes(segment))))
            except zlib.error as exc:
                raise CodecError(f"segment does not decompress: "
                                 f"{exc}") from None
        segments.append(segment)
    if offset != len(view):
        raise CodecError(f"{len(view) - offset} trailing bytes after the "
                         f"last segment")
    if not segments:
        raise CodecError("codec frame carries no segments")
    try:
        obj = pickle.loads(segments[0], buffers=iter(segments[1:]))
    except DeltaBaseMismatchError:
        raise
    except Exception as exc:
        raise CodecError(f"codec skeleton does not unpickle: "
                         f"{exc}") from None
    if not isinstance(obj, tuple) or len(obj) != 3:
        raise CodecError(f"codec skeleton is not a (kind, payload, delta) "
                         f"triple, got {type(obj).__name__}")
    kind, payload, table_wire = obj
    if not isinstance(kind, str):
        raise CodecError(f"message kind is {type(kind).__name__}, "
                         f"expected str")
    if table_wire is not None:
        if not isinstance(table_wire, _DeltaTable):
            raise CodecError("delta slot does not hold a delta table")
        if delta_state is None:
            delta_state = DeltaDecoderState()
        # A structurally broken table (malformed entry triples, a
        # payload object without a weights_table attribute, …) must
        # surface as CodecError so a garbage frame degrades to an error
        # reply instead of crashing a long-running shard server.
        try:
            payload.weights_table = _decode_table(table_wire, delta_state)
        except (DeltaBaseMismatchError, CodecError):
            raise
        except Exception as exc:
            raise CodecError(
                f"malformed delta table: {type(exc).__name__}: "
                f"{exc}") from None
    return kind, payload
