"""Socket transport of the worker-resident execution backends.

This module is the one wire layer of :class:`~repro.fl.executor.
ShardedSocketBackend`, under both of its names: length-prefixed message
framing over a stream socket, a version-checked hello handshake, and
the shard-server event loop that hosts worker-resident clients.  A
``sharded`` slot is that loop behind the ``repro shard-worker`` CLI on
a TCP port, serving several parent sessions concurrently; a
``persistent`` slot is the same loop in a forked child serving one
end of a ``socket.socketpair()`` (no listener, no port).

Framing
-------
Every frame is a 4-byte big-endian unsigned length followed by exactly
that many payload bytes.  Payloads come in two formats that coexist on
one connection, told apart by their first byte:

* **codec frames** (:mod:`repro.fl.codec`, magic ``0xEC``) — the
  message skeleton as a protocol-5 pickle plus raw out-of-band ndarray
  segments; every frame is self-contained.  This is what the resident
  backends ship per cycle; :meth:`MessageChannel.send_frame` writes the
  segments with one vectored ``sendmsg`` so encoding stays copy-free end
  to end.
* **plain pickles** of ``(kind, payload)`` tuples — control messages
  (hello, ping, bye, shutdown) and legacy peers.

Both directions carry the executor's wire batches
(:class:`~repro.fl.executor._WireBatch` and friends), whatever the
socket underneath.

Malformed traffic never hangs and never surfaces as a bare socket error:

* a connection closed cleanly *between* frames raises
  :class:`ConnectionClosedError`;
* a connection dying *inside* a frame (header or payload) raises
  :class:`TruncatedFrameError`;
* a header announcing more than ``max_frame_bytes`` raises
  :class:`FrameTooLargeError` before any payload is read (the stream is
  unrecoverable afterwards — close the connection);
* a payload that does not unpickle to a ``(kind, payload)`` tuple raises
  :class:`MalformedMessageError`;
* a hello carrying the wrong protocol or codec version raises
  :class:`ProtocolVersionError` on the connecting side.

Handshake
---------
The connecting side opens every connection — a TCP connect or a
forked slot's socketpair alike (:func:`handshake`) — with ``("hello",
{"protocol": PROTOCOL_VERSION, "session": ..., "codec": {"version":
...}})``; the shard replies ``("hello-ack", {"protocol": ..., "resumed":
..., "codec": ...})`` or ``("error", ProtocolVersionError(...))`` and
closes.  The ``codec`` entry opts the connection into the wire codec:
both sides refuse a codec version other than their own (a frame layout
mismatch would otherwise only surface on the first batch), the shard
echoes its version and answers in codec frames from then on, and a hello
without a codec entry keeps the whole connection on plain pickles.  Both
sides run the handshake under a timeout, so a version-mismatched or
silent peer fails fast instead of blocking a fleet start-up forever.

Concurrent sessions
-------------------
The shard server (:class:`ShardServer`, behind :func:`serve_shard`) is
a single-threaded ``selectors`` event loop multiplexing every live
connection, in the style of proactor/reactor actor runtimes: each
connection carries its own incremental frame-reassembly buffers, so a
peer that delivers a frame in dribbles never blocks its neighbours.
Sessions are isolated by their hello token: every token owns a private
resident fleet, so two parents sharing one fleet can never observe each
other's residents.  Heavy requests (``run``/``map``/``fold``/``vfold``)
execute one at a time on a dedicated worker thread — arrival order
within a connection, round-robin across connections — which keeps
single-parent runs bit-identical to the serial backend while control
traffic stays live.  ``--max-sessions`` caps how many session fleets a
shard retains; adding one beyond the cap evicts the
least-recently-active *disconnected* session, and is refused when every
retained session has a live connection.  A server built around one
already-connected socket (a forked local slot) has no listener: it
serves that connection's single session and ends when it closes.

Reconnects and resident state
-----------------------------
A shard keeps each session's resident clients across connection drops:
a parent that reconnects with the same ``session`` token resumes them
(the ack carries ``"resumed": True``) instead of re-shipping every
spec — this is what makes failover of a sibling shard cheap, because
the surviving shards' fleets survive the reconnect.  A hello with a new
token starts a fresh, independent fleet without disturbing anyone
else's; a hello without a token gets a private fleet that dies with the
connection; a polite ``bye`` retires that session's fleet and forgets
its token.  A second connection arriving with a live session's token
takes the session over (the stale predecessor is dropped).

Liveness
--------
``ping`` frames are answered with ``("pong", {"residents": ...})`` at
any point in a connection's lifetime — *from the event loop itself*, so
heartbeat probes (see
:meth:`~repro.fl.executor.ShardedSocketBackend.check_health`) stay
responsive even while a sibling session's batch is mid-training on the
worker thread.  Two deadlines guard the loop: a connection that stalls
*mid-frame* (or with unflushed replies) for longer than
``read_deadline`` seconds is dropped — only that connection; its
session stays resumable — and a connection that never completes the
hello is dropped after the handshake timeout.  Transient
``listener.accept()`` failures (``EMFILE``, ``ECONNABORTED``, …) pause
accepting with exponential backoff and a one-line stderr diagnostic
instead of silently killing a long-running shard.

Trust boundary
--------------
Payloads are pickles and a shard *executes* what it is sent (specs
build models, ``map`` ships functions) — that is the backend's job, and
it means **any peer that can reach a shard port can run code as the
shard user**.  There is no authentication layer yet.  The default bind
address is loopback; bind non-loopback addresses (``--host 0.0.0.0``)
only on networks where every host is already trusted, e.g. behind a
private interface or an SSH tunnel/WireGuard mesh.
"""

from __future__ import annotations

import pickle
import queue
import selectors
import socket
import struct
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import codec as wire_codec
from .codec import (KIND_BYE, KIND_ERROR, KIND_HELLO, KIND_HELLO_ACK,
                    KIND_PING, KIND_PONG, KIND_SHUTDOWN)

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_LISTEN_BACKLOG",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_READ_DEADLINE_S",
    "TransportError",
    "ConnectionClosedError",
    "TruncatedFrameError",
    "FrameTooLargeError",
    "ProtocolError",
    "ProtocolVersionError",
    "MalformedMessageError",
    "MessageChannel",
    "ShardServer",
    "connect_to_shard",
    "handshake",
    "serve_shard",
    "parse_address",
    "format_address",
]

#: Version of the shard wire protocol; bumped on incompatible changes.
#: Version 2 introduced the codec frame format (zero-copy ndarray
#: segments — see :mod:`repro.fl.codec`, which versions its own layout).
PROTOCOL_VERSION = 2

#: Default cap on one frame's payload (weights tables of large fleets fit
#: comfortably; a corrupt header claiming gigabytes is rejected instead).
DEFAULT_MAX_FRAME_BYTES = 1 << 30

#: Listen backlog of the shard server.  Connections are accepted as the
#: event loop gets to them, but reconnects racing a half-closed
#: predecessor (failover resets every channel at once) and overlapping
#: parents must be able to queue instead of having their SYNs dropped —
#: ``listen(1)`` made a second connection in quick succession hang until
#: its connect timeout.
DEFAULT_LISTEN_BACKLOG = 128

#: Default cap on retained session fleets per shard (``repro
#: shard-worker --max-sessions``).  Beyond it, adding a session evicts
#: the least-recently-active *disconnected* one; when every retained
#: session still has a live connection the new hello is refused.
DEFAULT_MAX_SESSIONS = 8

#: Default seconds a connection may stall *mid-frame* (or with replies
#: it is not reading back) before the server drops it.  Idle time
#: between complete frames is unlimited — parents legitimately sit idle
#: between cycles — so this only bounds wedged peers, not quiet ones.
DEFAULT_READ_DEADLINE_S = 600.0

#: Pickle protocol for shard traffic (matches the executor's control blobs).
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

_HEADER = struct.Struct(">I")

#: Seconds both sides allow the hello handshake to take.
_HANDSHAKE_TIMEOUT_S = 20.0

#: Accept-failure backoff window (exponential, per consecutive failure).
_ACCEPT_BACKOFF_MIN_S = 0.05
_ACCEPT_BACKOFF_MAX_S = 2.0


class TransportError(RuntimeError):
    """Base class of every shard-transport failure."""


class ConnectionClosedError(TransportError):
    """The peer closed the connection cleanly between frames."""


class TruncatedFrameError(TransportError):
    """The connection died mid-frame (incomplete header or payload)."""


class FrameTooLargeError(TransportError):
    """A frame header announced a payload above ``max_frame_bytes``."""


class ProtocolError(TransportError):
    """The peer spoke a structurally valid but unexpected message."""


class ProtocolVersionError(ProtocolError):
    """The hello handshake revealed incompatible protocol versions."""


class MalformedMessageError(ProtocolError):
    """A frame's payload was not a picklable ``(kind, payload)`` tuple."""


def _picklable_exception(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in."""
    try:
        pickle.dumps(exc, _PICKLE_PROTOCOL)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def parse_address(address: Any) -> Tuple[str, int]:
    """Normalize a shard address into a ``(host, port)`` pair.

    Accepts ``"host:port"`` strings (the CLI's ``--shards`` format) and
    ``(host, port)`` tuples.
    """
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"shard address {address!r} is not of the form 'host:port'")
        try:
            return host, int(port)
        except ValueError:
            raise ValueError(f"shard address {address!r} has a non-integer "
                             f"port") from None
    try:
        host, port = address
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse shard address {address!r}; expected "
                         f"'host:port' or (host, port)") from None
    return str(host), int(port)


def format_address(address: Tuple[str, int]) -> str:
    """``host:port`` rendering used in logs and error messages."""
    return f"{address[0]}:{address[1]}"


def _load_message(blob: bytes) -> Tuple[str, Any]:
    """Unpickle one frame payload into a ``(kind, payload)`` message."""
    try:
        message = pickle.loads(blob)
    except Exception as exc:
        raise MalformedMessageError(
            f"frame payload does not unpickle: {exc}") from None
    if (not isinstance(message, tuple) or len(message) != 2
            or not isinstance(message[0], str)):
        raise MalformedMessageError(
            f"expected a (kind, payload) tuple, got {type(message).__name__}")
    return message


class MessageChannel:
    """One framed, message-oriented connection over a stream socket.

    Thin and stateless beyond the socket itself: ``send``/``recv`` move
    whole ``(kind, payload)`` messages, ``send_bytes``/``recv_bytes``
    move pre-pickled frames (the backend pre-pickles batches to measure
    dispatch bytes before sending).  ``close`` is idempotent and safe to
    call during interpreter shutdown.
    """

    def __init__(self, sock: socket.socket,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes <= 0:
            raise ValueError("max_frame_bytes must be positive")
        if max_frame_bytes > 0xFFFFFFFF:
            raise ValueError("max_frame_bytes cannot exceed the 4-byte "
                             "frame header's 4 GiB limit")
        self._sock: Optional[socket.socket] = sock
        self.max_frame_bytes = max_frame_bytes
        # Nagle would hold each small control frame (ping/pong, error
        # replies) until the previous one is ACKed —
        # with send_bytes' separate header/payload writes that is a
        # delayed-ACK round trip per frame.  Request/reply traffic
        # never benefits from coalescing, so disable it outright.
        self.set_tcp_nodelay(True)
        #: Whether the hello handshake resumed a previous session's
        #: resident state on the shard (set by :func:`connect_to_shard`).
        self.resumed = False
        #: Whether the hello handshake agreed on the wire codec;
        #: ``False`` means the connection speaks plain pickles only (set
        #: by :func:`connect_to_shard`).
        self.codec_acked = False
        #: Chaos-engineering hook (``None`` in production): a callable
        #: ``(frame_kind, total_bytes) -> Optional[FrameFault]``
        #: consulted before every :meth:`send_frame`.  Only codec
        #: frames pass through it — never :meth:`send_bytes` control
        #: blobs (pings, byes), whose wall-clock-paced traffic must not
        #: consume the injector's deterministic fault stream.  See
        #: :mod:`repro.fl.chaos`.
        self.fault_injector: Optional[Callable[[str, int], Any]] = None

    @property
    def closed(self) -> bool:
        return self._sock is None

    def _socket(self) -> socket.socket:
        if self._sock is None:
            raise ConnectionClosedError("channel is closed")
        return self._sock

    # ------------------------------------------------------------------ #
    def send_bytes(self, blob: bytes) -> None:
        """Send one pre-pickled payload as a length-prefixed frame."""
        if len(blob) > self.max_frame_bytes:
            raise FrameTooLargeError(
                f"refusing to send a {len(blob)}-byte frame "
                f"(max_frame_bytes={self.max_frame_bytes})")
        sock = self._socket()
        # Two sendalls instead of header+blob concatenation: batches
        # carry whole weights tables, and copying them once per send
        # just to prepend 4 bytes would be an O(weights) tax per cycle.
        sock.sendall(_HEADER.pack(len(blob)))
        sock.sendall(blob)

    def send_frame(self, frame: "wire_codec.EncodedFrame") -> None:
        """Send one encoded codec frame without assembling its payload.

        The frame's header and segments are written with vectored
        ``sendmsg`` calls (one syscall for the common case), so the
        ndarray segments the codec collected as memoryviews reach the
        kernel without ever being concatenated — the zero-copy half of
        the codec's contract.  An oversized frame is rejected locally
        with the message kind and a skeleton-vs-ndarray size breakdown.
        """
        total = frame.total_bytes
        if total > self.max_frame_bytes:
            raise FrameTooLargeError(
                f"refusing to send a {frame.kind!r} frame of {total} bytes "
                f"(max_frame_bytes={self.max_frame_bytes}; "
                f"{frame.describe()})")
        if self.fault_injector is not None:
            fault = self.fault_injector(frame.kind, total)
            if fault is not None:
                self._apply_fault(fault, frame, total)
        sock = self._socket()
        buffers: List[Any] = [_HEADER.pack(total)]
        buffers.extend(frame.buffers())
        if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX
            for buffer in buffers:
                sock.sendall(buffer)
            return
        views = [memoryview(buffer).cast("B") for buffer in buffers]
        while views:
            # Cap the iovec count per call: sendmsg rejects vectors
            # longer than IOV_MAX (1024 on Linux) with EMSGSIZE.
            sent = sock.sendmsg(views[:512])
            while views and sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            if sent and views:
                views[0] = views[0][sent:]

    def send(self, message: Tuple[str, Any]) -> None:
        """Pickle and send one ``(kind, payload)`` message."""
        self.send_bytes(pickle.dumps(message, _PICKLE_PROTOCOL))

    def _apply_fault(self, fault: Any, frame: Any, total: int) -> None:
        """Execute one injected wire fault (see :mod:`repro.fl.chaos`).

        ``delay`` stalls the send and then proceeds normally; the other
        actions destroy the connection mid-protocol — exactly the
        failure shapes (clean close, mid-frame truncation, hard RST)
        the recovery machinery must absorb — and raise the transport
        error a real peer death would have produced.
        """
        action = fault.action
        if action == "delay":
            time.sleep(fault.seconds)
            return
        sock = self._socket()
        if action == "truncate":
            # The header promises ``total`` bytes; shipping only a
            # prefix leaves the peer mid-frame, the worst kind of wire
            # corruption a dying sender produces.
            try:
                sock.sendall(_HEADER.pack(total))
                keep = int(getattr(fault, "keep_bytes", 0))
                if keep > 0:
                    for buffer in frame.buffers():
                        view = memoryview(buffer).cast("B")[:keep]
                        sock.sendall(view)
                        keep -= len(view)
                        if keep <= 0:
                            break
            except OSError:
                pass
        elif action == "reset":
            # RST instead of FIN: the peer sees a connection reset with
            # data in flight, not a polite close.
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
            except OSError:
                pass
        self.close()
        raise ConnectionClosedError(
            f"chaos: injected {action} while sending a "
            f"{frame.kind!r} frame")

    def _recv_exact(self, num_bytes: int, *, mid_frame: bool) -> memoryview:
        """Read exactly ``num_bytes`` into a fresh writable buffer.

        Receiving into one pre-sized ``bytearray`` (instead of joining
        ``recv`` chunks) skips the reassembly copy, and — because the
        codec reconstructs ndarrays as views into this buffer — makes
        the decoded arrays writable, matching what plain pickling would
        have produced.
        """
        sock = self._socket()
        buffer = bytearray(num_bytes)
        view = memoryview(buffer)
        received = 0
        while received < num_bytes:
            try:
                chunk = sock.recv_into(view[received:], num_bytes - received)
            except ConnectionResetError:
                # A peer that drops a desynchronized connection with
                # unread data in flight resets instead of FIN-closing;
                # to the protocol that is the same "the stream is over"
                # signal, not a bare socket error.
                chunk = 0
            if not chunk:
                if mid_frame or received:
                    raise TruncatedFrameError(
                        f"connection closed {received} bytes into a "
                        f"{num_bytes}-byte read")
                raise ConnectionClosedError(
                    "connection closed at a frame boundary")
            received += chunk
        return view

    def recv_bytes(self) -> memoryview:
        """Receive one frame's payload as a writable memoryview.

        Raises :class:`ConnectionClosedError` on a clean close between
        frames, :class:`TruncatedFrameError` on a mid-frame close, and
        :class:`FrameTooLargeError` on an oversized announcement.
        """
        header = self._recv_exact(_HEADER.size, mid_frame=False)
        (length,) = _HEADER.unpack(header)
        if length > self.max_frame_bytes:
            raise FrameTooLargeError(
                f"peer announced a {length}-byte frame "
                f"(max_frame_bytes={self.max_frame_bytes})")
        return self._recv_exact(length, mid_frame=True)

    def recv(self) -> Tuple[str, Any]:
        """Receive and unpickle one ``(kind, payload)`` message."""
        return _load_message(self.recv_bytes())

    # ------------------------------------------------------------------ #
    def set_tcp_nodelay(self, enabled: bool) -> None:
        """Toggle ``TCP_NODELAY`` (on by default; no-op off TCP).

        Non-TCP sockets (the AF_UNIX socketpairs of forked local slots
        and tests) reject the option — that is fine, they have no
        Nagle to disable.  The benchmark suite toggles this to measure
        the latency Nagle would have cost.
        """
        if self._sock is None:
            return
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY,
                                  1 if enabled else 0)
        except OSError:
            pass

    def settimeout(self, timeout: Optional[float]) -> None:
        if self._sock is not None:
            self._sock.settimeout(timeout)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except Exception:  # lint: allow[swallow] - idempotent close
                pass

    def __enter__(self) -> "MessageChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- #
# handshake
# --------------------------------------------------------------------- #

def connect_to_shard(address: Any, *,
                     timeout: float = _HANDSHAKE_TIMEOUT_S,
                     max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                     protocol: int = PROTOCOL_VERSION,
                     session: Optional[str] = None,
                     codec: Optional[Dict[str, Any]] = None
                     ) -> MessageChannel:
    """Connect to a shard server and run the hello handshake.

    The TCP half of opening a slot: connect (bounded by ``timeout``),
    then :func:`handshake` with the same keywords.
    """
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    return handshake(MessageChannel(sock, max_frame_bytes),
                     format_address((host, port)), timeout=timeout,
                     protocol=protocol, session=session, codec=codec)


def handshake(channel: MessageChannel, peer: str, *,
              timeout: float = _HANDSHAKE_TIMEOUT_S,
              protocol: int = PROTOCOL_VERSION,
              session: Optional[str] = None,
              codec: Optional[Dict[str, Any]] = None) -> MessageChannel:
    """Run the hello handshake on a connected channel.

    ``peer`` names the shard in errors (``host:port``, or a forked
    slot's label).  Returns ``channel`` ready for batches, with no
    operation timeout (batches may legitimately train for a long time).
    Raises :class:`ProtocolVersionError` if the shard rejects our
    protocol or codec version (or acknowledges a codec version other
    than ours), and ordinary :class:`TransportError` subclasses on
    malformed replies — never hangs past ``timeout``.  On any failure
    the channel is closed.

    ``session`` (opaque token) lets a reconnecting parent resume the
    resident clients its previous connection left on the shard; the
    returned channel's :attr:`~MessageChannel.resumed` says whether the
    shard actually kept them.  Without a token every connection starts
    from a clean resident fleet.

    ``codec`` (``{"version": CODEC_VERSION}``) opts the connection into
    the wire codec of :mod:`repro.fl.codec`; the shard echoes its
    version and the returned channel's
    :attr:`~MessageChannel.codec_acked` turns true.  ``codec_acked``
    left false means the shard did not acknowledge the codec — the
    caller must then either stick to plain pickles on this channel or
    treat the peer as incompatible (the resident backends do the
    latter: they only send codec frames).
    """
    try:
        channel.settimeout(timeout)
        hello: Dict[str, Any] = {"protocol": protocol}
        if session is not None:
            hello["session"] = session
        if codec is not None:
            hello["codec"] = dict(codec)
        channel.send((KIND_HELLO, hello))
        kind, payload = channel.recv()
    except (OSError, socket.timeout) as exc:
        channel.close()
        raise TransportError(
            f"handshake with shard {peer} failed: {exc}") from None
    except TransportError:
        channel.close()
        raise
    if kind == KIND_ERROR and isinstance(payload, BaseException):
        channel.close()
        raise payload
    if kind != KIND_HELLO_ACK:
        channel.close()
        raise ProtocolError(
            f"shard {peer} answered the hello with {kind!r}")
    channel.resumed = bool(isinstance(payload, dict)
                           and payload.get("resumed"))
    if codec is not None and isinstance(payload, dict):
        ack_codec = payload.get("codec")
        if isinstance(ack_codec, dict):
            if ack_codec.get("version") != codec.get("version"):
                channel.close()
                raise ProtocolVersionError(
                    f"shard {peer} speaks codec version "
                    f"{ack_codec.get('version')!r}, this side requested "
                    f"{codec.get('version')!r}")
            channel.codec_acked = True
    channel.settimeout(None)
    return channel


# --------------------------------------------------------------------- #
# reply encoding (server side)
# --------------------------------------------------------------------- #

def _pickled_reply_buffers(reply: Tuple[str, Any],
                           max_frame_bytes: int) -> List[Any]:
    """Wire buffers (header + payload) of a plain-pickled reply.

    The parent is blocked waiting for exactly one reply, so a reply that
    cannot be pickled or exceeds the frame limit must not be silently
    dropped (that would hang the fleet) nor crash the server: it is
    replaced by a small ``("error", ...)`` explaining the failure.
    """
    try:
        blob = pickle.dumps(reply, _PICKLE_PROTOCOL)
    except Exception as exc:
        blob = pickle.dumps((KIND_ERROR, RuntimeError(
            f"shard reply does not pickle: {exc!r}")), _PICKLE_PROTOCOL)
    if len(blob) > max_frame_bytes:
        blob = pickle.dumps((KIND_ERROR, FrameTooLargeError(
            f"shard reply is {len(blob)} bytes "
            f"(max_frame_bytes={max_frame_bytes})")), _PICKLE_PROTOCOL)
    return [_HEADER.pack(len(blob)), blob]


def _reply_buffers(reply: Tuple[str, Any], codec: bool,
                   max_frame_bytes: int) -> List[Any]:
    """Wire buffers of a reply under the connection's negotiated framing.

    ``codec`` selects codec framing (``False`` = plain pickle, for
    connections that did not negotiate the codec).  Degradation follows
    :func:`_pickled_reply_buffers`: an unencodable or oversized reply
    becomes a small plain-pickled ``("error", ...)`` naming the reply
    kind and its skeleton-vs-ndarray size breakdown when it was the
    frame limit that bit.
    """
    if not codec:
        return _pickled_reply_buffers(reply, max_frame_bytes)
    try:
        frame = wire_codec.encode_message(reply)
    except Exception as exc:
        return _pickled_reply_buffers((KIND_ERROR, RuntimeError(
            f"shard reply does not encode: {exc!r}")), max_frame_bytes)
    if frame.total_bytes > max_frame_bytes:
        return _pickled_reply_buffers((KIND_ERROR, FrameTooLargeError(
            f"shard reply is an oversized {frame.kind!r} frame "
            f"(max_frame_bytes={max_frame_bytes}; "
            f"{frame.describe()})")), max_frame_bytes)
    return [_HEADER.pack(frame.total_bytes)] + frame.buffers()


# --------------------------------------------------------------------- #
# shard server
# --------------------------------------------------------------------- #

class _Session:
    """One parent session's server-side state, isolated by hello token.

    ``residents`` is the fleet :func:`~repro.fl.executor.
    _handle_resident_request` mutates, private to the token — the whole
    point of the session table is that no other parent can reach it.
    ``conn`` is the live connection currently owning the session
    (``None`` while disconnected-but-resumable).
    """

    __slots__ = ("token", "residents", "conn", "last_active")

    def __init__(self, token: Optional[str]) -> None:
        self.token = token
        self.residents: Dict[int, Any] = {}
        self.conn: Optional["_Connection"] = None
        self.last_active = 0.0


class _Connection:
    """Per-connection state machine of the shard-server event loop.

    Owns the incremental frame reassembly (non-blocking reads into a
    pre-sized writable buffer, so codec decodes stay zero-copy and
    writable exactly like the blocking path), the outbox of partially
    written replies, and the protocol state (``hello`` until the
    handshake completes, then ``ready``).
    """

    HELLO = "hello"
    READY = "ready"

    __slots__ = ("sock", "peer", "max_frame_bytes", "state", "session",
                 "codec", "deadline", "frames", "outbox", "busy",
                 "pending_item", "close_after_flush", "dead", "interest",
                 "_header", "_header_got", "_payload", "_payload_view",
                 "_payload_got")

    def __init__(self, sock: socket.socket, max_frame_bytes: int,
                 handshake_deadline: float) -> None:
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self.sock = sock
        try:
            peer = sock.getpeername()
        except OSError:
            peer = "?"
        # An AF_UNIX socketpair end (a forked slot) has no address: its
        # getpeername() is ''.
        self.peer = (format_address(peer[:2]) if isinstance(peer, tuple)
                     else peer or "local")
        self.max_frame_bytes = max_frame_bytes
        self.state = _Connection.HELLO
        self.session: Optional[_Session] = None
        #: The hello agreed on the wire codec: replies are codec frames.
        self.codec = False
        #: Monotonic instant after which the connection counts as wedged
        #: (``None`` = no deadline armed; see :meth:`arm_deadline`).
        self.deadline: Optional[float] = handshake_deadline
        #: Complete frame payloads awaiting processing, in arrival order.
        self.frames: deque = deque()
        #: Reply bytes awaiting a writable socket.
        self.outbox: deque = deque()
        #: A heavy request of this connection is queued or executing.
        self.busy = False
        self.pending_item: Optional[Tuple[str, Any]] = None
        self.close_after_flush = False
        self.dead = False
        self.interest = selectors.EVENT_READ
        self._header = bytearray(_HEADER.size)
        self._header_got = 0
        self._payload: Optional[bytearray] = None
        self._payload_view: Optional[memoryview] = None
        self._payload_got = 0

    @property
    def mid_frame(self) -> bool:
        return self._header_got > 0 or self._payload is not None

    def on_readable(self) -> bool:
        """Drain the socket into frames; ``False`` = connection is over.

        Frames completed before an EOF are still queued — a parent that
        sends ``bye`` and closes in one breath must have its ``bye``
        honoured.
        """
        while True:
            if self._payload is None:
                want = _HEADER.size - self._header_got
                try:
                    got = self.sock.recv_into(
                        memoryview(self._header)[self._header_got:], want)
                except (BlockingIOError, InterruptedError):
                    return True
                except OSError:
                    return False
                if got == 0:
                    return False
                self._header_got += got
                if self._header_got < _HEADER.size:
                    continue
                (length,) = _HEADER.unpack(self._header)
                if length > self.max_frame_bytes:
                    # The announced payload is never read, so the stream
                    # is desynchronized beyond repair: drop it.
                    return False
                self._header_got = 0
                self._payload = bytearray(length)
                self._payload_view = memoryview(self._payload)
                self._payload_got = 0
                if length == 0:
                    self._finish_frame()
                continue
            want = len(self._payload) - self._payload_got
            try:
                got = self.sock.recv_into(
                    self._payload_view[self._payload_got:], want)
            except (BlockingIOError, InterruptedError):
                return True
            except OSError:
                return False
            if got == 0:
                return False
            self._payload_got += got
            if self._payload_got == len(self._payload):
                self._finish_frame()

    def _finish_frame(self) -> None:
        view, self._payload_view = self._payload_view, None
        self._payload = None
        self.frames.append(view)

    def queue_reply(self, buffers: List[Any]) -> bool:
        """Queue wire buffers and try to flush them immediately."""
        for buffer in buffers:
            view = memoryview(buffer).cast("B")
            if len(view):
                self.outbox.append(view)
        return self.flush()

    def flush(self) -> bool:
        """Write as much of the outbox as the socket accepts right now."""
        while self.outbox:
            try:
                if hasattr(self.sock, "sendmsg"):
                    # Cap the iovec count per call: sendmsg rejects
                    # vectors longer than IOV_MAX with EMSGSIZE.
                    batch = [self.outbox[index]
                             for index in range(min(len(self.outbox), 512))]
                    sent = self.sock.sendmsg(batch)
                else:  # pragma: no cover - non-POSIX
                    sent = self.sock.send(self.outbox[0])
            except (BlockingIOError, InterruptedError):
                return True
            except OSError:
                return False
            while self.outbox and sent >= len(self.outbox[0]):
                sent -= len(self.outbox[0])
                self.outbox.popleft()
            if sent and self.outbox:
                self.outbox[0] = self.outbox[0][sent:]
        return True

    def arm_deadline(self, now: float, read_deadline: float) -> None:
        """Re-arm the liveness deadline after progress on this socket.

        Handshake deadlines are absolute (set at accept and never
        extended).  After the handshake, the clock only runs while the
        peer owes us bytes — a partially received frame or unflushed
        replies — and resets on every byte of progress, so slow peers
        survive and wedged ones are bounded.
        """
        if self.state == _Connection.HELLO:
            return
        if self.mid_frame or self.outbox:
            self.deadline = now + read_deadline
        else:
            self.deadline = None

    def close(self) -> None:
        self.dead = True
        try:
            self.sock.close()
        except OSError:
            pass


class ShardServer:
    """Event-loop shard server multiplexing concurrent parent sessions.

    A single ``selectors`` loop owns every socket: it accepts,
    reassembles frames incrementally per connection, answers control
    traffic (hello, ping, bye, shutdown, malformed-frame errors) inline,
    and feeds heavy requests (``run``/``map``/``fold``/``vfold``) to one
    dedicated worker thread — arrival order within a connection, round-
    robin across connections when several are ready.  One worker, not a
    pool: resident training is CPU-bound and single-parent runs must
    stay bit-identical to the serial backend, so requests execute
    strictly one at a time while the loop keeps every other session's
    heartbeats and handshakes live.

    Sessions (resident fleets) live in a
    ``{token: _Session}`` table — see :class:`_Session` — capped at
    ``max_sessions`` with least-recently-active eviction of disconnected
    entries.  Construct directly only in tests (it exposes the bound
    ``address`` before serving) and in a forked local slot; the other
    production entry points are :func:`serve_shard` and the ``repro
    shard-worker`` CLI.

    ``connection`` (an already-connected stream socket, e.g. one end of
    a ``socket.socketpair()``) replaces the listener: the server then
    has no ``address``, serves that one connection, and its loop ends
    when the connection closes or a ``shutdown`` arrives.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 backlog: int = DEFAULT_LISTEN_BACKLOG,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 read_deadline: float = DEFAULT_READ_DEADLINE_S,
                 handshake_timeout: float = _HANDSHAKE_TIMEOUT_S,
                 ready: Optional[Callable[[str, int], None]] = None,
                 handler: Optional[Callable] = None,
                 connection: Optional[socket.socket] = None) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if read_deadline <= 0:
            raise ValueError("read_deadline must be positive")
        self.max_frame_bytes = max_frame_bytes
        self.max_sessions = max_sessions
        self.read_deadline = read_deadline
        self.handshake_timeout = handshake_timeout
        self._ready_callback = ready
        self._handler = handler
        self._connection = connection
        self._listener: Optional[socket.socket] = None
        self.address: Optional[Tuple[str, int]] = None
        if connection is None:
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            try:
                self._listener.bind((host, port))
                self._listener.listen(backlog)
                self._listener.setblocking(False)
            except OSError:
                self._listener.close()
                raise
            self.address = self._listener.getsockname()[:2]
        self._sessions: Dict[str, _Session] = {}
        self._conns: set = set()
        self._run_queue: deque = deque()  # conns with a dispatchable item
        self._worker_active = False
        self._running = False
        self._accept_failures = 0
        self._accept_paused_until: Optional[float] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._work: "queue.Queue" = queue.Queue()
        self._done: "queue.Queue" = queue.Queue()
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None

    # ------------------------------------------------------------------ #
    # loop scaffolding
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        """Serve until a ``shutdown`` frame arrives, then tear down."""
        if self._handler is None:
            # Imported lazily: executor imports this module at load time.
            from .executor import _handle_resident_request
            self._handler = _handle_resident_request
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        if self._listener is None:
            self._adopt(self._connection, time.monotonic())
        else:
            self._selector.register(self._listener, selectors.EVENT_READ,
                                    "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        worker = threading.Thread(target=self._worker_main,
                                  name="shard-request-worker", daemon=True)
        worker.start()
        self._running = True
        if self._ready_callback is not None:
            self._ready_callback(*self.address)
        try:
            while self._running:
                now = time.monotonic()
                events = self._selector.select(self._select_timeout(now))
                now = time.monotonic()
                for key, mask in events:
                    if key.data == "accept":
                        self._on_accept_ready()
                    elif key.data == "wake":
                        self._drain_wake()
                    else:
                        self._service_connection(key.data, mask, now)
                    if not self._running:
                        break
                self._drain_done(now)
                self._check_deadlines(now)
                self._maybe_resume_accept(now)
                if (not self._conns if self._listener is None
                        else self._listener.fileno() == -1):
                    # The listener is gone (external close()), or a
                    # listener-less server lost its one connection: no
                    # new parents can ever arrive, so end the loop.
                    self._running = False
        finally:
            self._running = False
            self._work.put(None)
            worker.join(timeout=60)
            for conn in list(self._conns):
                conn.close()
            self._conns.clear()
            self._sessions.clear()
            self._selector.close()
            for sock in (self._wake_r, self._wake_w):
                try:
                    sock.close()
                except OSError:
                    pass
            self.close()

    def close(self) -> None:
        """Close the listener (idempotent; ends a running serve loop)."""
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        self._wake()  # a blocked select() must notice the closure

    def _select_timeout(self, now: float) -> Optional[float]:
        deadlines = [conn.deadline for conn in self._conns
                     if conn.deadline is not None]
        if self._accept_paused_until is not None:
            deadlines.append(self._accept_paused_until)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - now)

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (OSError, AttributeError):
            pass  # a pending wakeup (full pipe) or teardown: both fine

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # accepting
    # ------------------------------------------------------------------ #

    def _accept(self) -> Tuple[socket.socket, Any]:
        """One ``accept()`` call (separate so tests can inject failures)."""
        return self._listener.accept()

    def _on_accept_ready(self) -> None:
        while True:
            try:
                sock, _ = self._accept()
            except (BlockingIOError, InterruptedError):
                self._accept_failures = 0
                return
            except OSError as exc:
                if self._listener.fileno() == -1:
                    # The listener itself is gone — nothing left to
                    # serve; only this (or shutdown) ends the loop.
                    self._running = False
                    return
                # Transient (EMFILE, ECONNABORTED, ...): pause accepting
                # with exponential backoff instead of dying; established
                # connections keep being served throughout.
                self._accept_failures += 1
                delay = min(_ACCEPT_BACKOFF_MAX_S,
                            _ACCEPT_BACKOFF_MIN_S
                            * (2 ** (self._accept_failures - 1)))
                print(f"repro shard-worker: accept() failed ({exc}); "
                      f"retrying in {delay:.2f}s", file=sys.stderr)
                try:
                    self._selector.unregister(self._listener)
                except (KeyError, ValueError):
                    pass
                self._accept_paused_until = time.monotonic() + delay
                return
            self._accept_failures = 0
            self._adopt(sock, time.monotonic())

    def _adopt(self, sock: socket.socket, now: float) -> None:
        """Start serving one connected socket (hello first)."""
        conn = _Connection(sock, self.max_frame_bytes,
                           now + self.handshake_timeout)
        self._conns.add(conn)
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _maybe_resume_accept(self, now: float) -> None:
        if (self._accept_paused_until is not None
                and now >= self._accept_paused_until):
            self._accept_paused_until = None
            if self._listener.fileno() != -1:
                self._selector.register(self._listener,
                                        selectors.EVENT_READ, "accept")

    # ------------------------------------------------------------------ #
    # per-connection servicing
    # ------------------------------------------------------------------ #

    def _service_connection(self, conn: _Connection, mask: int,
                            now: float) -> None:
        if conn.dead:
            return
        alive = True
        if mask & selectors.EVENT_READ:
            alive = conn.on_readable()
        self._process_frames(conn, now)
        if conn.dead or not self._running:
            return
        if not alive:
            self._drop(conn)
            return
        self._post_service(conn, now)

    def _post_service(self, conn: _Connection, now: float) -> None:
        """Flush, settle write interest and deadlines after any activity."""
        if conn.outbox and not conn.flush():
            self._drop(conn)
            return
        if not conn.outbox and conn.close_after_flush:
            self._drop(conn)
            return
        interest = selectors.EVENT_READ
        if conn.outbox:
            interest |= selectors.EVENT_WRITE
        if interest != conn.interest:
            conn.interest = interest
            self._selector.modify(conn.sock, interest, conn)
        conn.arm_deadline(now, self.read_deadline)

    def _drop(self, conn: _Connection) -> None:
        """Close one connection; its session stays resumable."""
        if conn.dead:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.close()
        self._conns.discard(conn)
        session = conn.session
        if session is not None and session.conn is conn:
            session.conn = None
            session.last_active = time.monotonic()

    def _check_deadlines(self, now: float) -> None:
        for conn in list(self._conns):
            if conn.deadline is not None and now >= conn.deadline:
                if conn.state == _Connection.READY:
                    print(f"repro shard-worker: dropping stalled "
                          f"connection {conn.peer} (no progress for "
                          f"{self.read_deadline:.0f}s mid-frame); its "
                          f"session stays resumable", file=sys.stderr)
                self._drop(conn)

    # ------------------------------------------------------------------ #
    # frame processing (event-loop thread)
    # ------------------------------------------------------------------ #

    def _process_frames(self, conn: _Connection, now: float) -> None:
        """Handle queued frames in order until one needs the worker.

        Control frames are answered inline; the first heavy frame marks
        the connection busy and joins the round-robin run queue — later
        frames of the same connection wait so per-connection ordering is
        exact.
        """
        while (not conn.busy and not conn.dead and not conn.close_after_flush
               and conn.frames and self._running):
            blob = conn.frames.popleft()
            if conn.session is not None:
                conn.session.last_active = now
            if conn.state == _Connection.HELLO:
                self._handle_hello(conn, blob, now)
                continue
            if wire_codec.is_codec_frame(blob):
                self._enqueue_heavy(conn, ("codec", blob))
                continue
            try:
                kind, payload = _load_message(blob)
            except MalformedMessageError as exc:
                # Framing is intact, only this payload was garbage:
                # report it and keep serving.
                if not conn.queue_reply(_pickled_reply_buffers(
                        (KIND_ERROR, exc), self.max_frame_bytes)):
                    self._drop(conn)
                continue
            if kind == KIND_PING:
                pong = (KIND_PONG,
                        {"residents": len(conn.session.residents)})
                if not conn.queue_reply(_reply_buffers(
                        pong, conn.codec, self.max_frame_bytes)):
                    self._drop(conn)
                continue
            if kind == KIND_BYE:
                self._end_session(conn)
                self._drop(conn)
                return
            if kind == KIND_SHUTDOWN:
                self._running = False
                return
            self._enqueue_heavy(conn, ("msg", (kind, payload)))

    def _handle_hello(self, conn: _Connection, blob: Any,
                      now: float) -> None:
        try:
            kind, payload = _load_message(blob)
        except MalformedMessageError:
            self._drop(conn)
            return
        if kind != KIND_HELLO or not isinstance(payload, dict):
            self._refuse(conn, ProtocolError(
                f"expected a hello, got {kind!r}"))
            return
        peer_version = payload.get("protocol")
        if peer_version != PROTOCOL_VERSION:
            self._refuse(conn, ProtocolVersionError(
                f"shard speaks protocol {PROTOCOL_VERSION}, "
                f"client sent {peer_version!r}"))
            return
        requested_codec = payload.get("codec")
        codec_ack: Optional[Dict[str, Any]] = None
        if isinstance(requested_codec, dict):
            if requested_codec.get("version") != wire_codec.CODEC_VERSION:
                self._refuse(conn, ProtocolVersionError(
                    f"shard speaks codec version "
                    f"{wire_codec.CODEC_VERSION}, client sent "
                    f"{requested_codec.get('version')!r}"))
                return
            codec_ack = {"version": wire_codec.CODEC_VERSION}
        resolved = self._resolve_session(conn, payload.get("session"), now)
        if resolved is None:
            return
        session, resumed = resolved
        conn.session = session
        conn.codec = codec_ack is not None
        ack = {"protocol": PROTOCOL_VERSION, "resumed": resumed,
               "residents": len(session.residents),
               "codec": codec_ack}
        conn.state = _Connection.READY
        conn.deadline = None
        if not conn.queue_reply(_pickled_reply_buffers(
                (KIND_HELLO_ACK, ack), self.max_frame_bytes)):
            self._drop(conn)

    def _refuse(self, conn: _Connection, error: BaseException) -> None:
        """Answer a failed hello with an error, then hang up."""
        conn.close_after_flush = True
        if not conn.queue_reply(_pickled_reply_buffers(
                (KIND_ERROR, error), self.max_frame_bytes)):
            self._drop(conn)

    def _resolve_session(self, conn: _Connection, token: Optional[str],
                         now: float):
        """The (session, resumed) a hello token maps to, or ``None``.

        ``None`` (an anonymous hello) gets a private session that is
        never stored: it cannot be resumed and dies with the connection.
        A known token resumes its session, taking it over from a stale
        live connection if one lingers.  A new token claims a table slot,
        evicting the least-recently-active disconnected session when the
        table is full — and is refused outright when every retained
        session still has a live connection.
        """
        if token is None:
            session = _Session(None)
            session.conn = conn
            session.last_active = now
            return session, False
        session = self._sessions.get(token)
        if session is not None:
            stale = session.conn
            if stale is not None and stale is not conn:
                self._drop(stale)
            session.conn = conn
            session.last_active = now
            return session, True
        if len(self._sessions) >= self.max_sessions:
            evictable = [candidate for candidate in self._sessions.values()
                         if candidate.conn is None]
            if not evictable:
                self._refuse(conn, ProtocolError(
                    f"shard is at capacity: {len(self._sessions)} live "
                    f"sessions (raise --max-sessions)"))
                return None
            victim = min(evictable, key=lambda s: s.last_active)
            del self._sessions[victim.token]
        session = _Session(token)
        session.conn = conn
        session.last_active = now
        self._sessions[token] = session
        return session, False

    def _end_session(self, conn: _Connection) -> None:
        """A polite ``bye``: the run is over, retire the session.

        A later reconnect with the same token must start clean instead
        of resuming an emptied fleet, so the token is forgotten too.
        """
        session = conn.session
        if session is None:
            return
        session.residents.clear()
        session.conn = None
        if session.token is not None:
            self._sessions.pop(session.token, None)

    # ------------------------------------------------------------------ #
    # heavy-request scheduling
    # ------------------------------------------------------------------ #

    def _enqueue_heavy(self, conn: _Connection,
                       item: Tuple[str, Any]) -> None:
        conn.busy = True
        conn.pending_item = item
        self._run_queue.append(conn)
        self._maybe_dispatch()

    def _maybe_dispatch(self) -> None:
        while not self._worker_active and self._run_queue:
            conn = self._run_queue.popleft()
            if conn.dead:
                conn.busy = False
                conn.pending_item = None
                continue
            item, conn.pending_item = conn.pending_item, None
            self._worker_active = True
            self._work.put((conn, item))

    def _drain_done(self, now: float) -> None:
        while True:
            try:
                conn, buffers, control = self._done.get_nowait()
            except queue.Empty:
                return
            self._worker_active = False
            conn.busy = False
            if control == KIND_SHUTDOWN:
                self._running = False
                return
            if control == KIND_BYE:
                self._end_session(conn)
                self._drop(conn)
            elif not conn.dead:
                if buffers is not None and not conn.queue_reply(buffers):
                    self._drop(conn)
                else:
                    # The reply freed the connection: its next queued
                    # frame (if any) may now proceed.
                    self._process_frames(conn, now)
                    if not conn.dead and self._running:
                        self._post_service(conn, now)
            self._maybe_dispatch()

    # ------------------------------------------------------------------ #
    # worker thread
    # ------------------------------------------------------------------ #

    def _worker_main(self) -> None:
        while True:
            job = self._work.get()
            if job is None:
                return
            conn, item = job
            try:
                buffers, control = self._execute(conn, item)
            except Exception as exc:  # belt and braces: never die
                buffers, control = _pickled_reply_buffers(
                    (KIND_ERROR, _picklable_exception(exc)),
                    self.max_frame_bytes), None
            self._done.put((conn, buffers, control))
            self._wake()

    def _execute(self, conn: _Connection, item: Tuple[str, Any]):
        """Decode (if codec-framed) and run one heavy request.

        Runs on the worker thread.  Per-session state (residents) is
        only ever touched here, and the worker runs one request at a
        time, so sessions need no locking.  Returns
        ``(reply_buffers, control)`` where ``control`` flags decoded
        ``bye``/``shutdown`` for the loop to act on.
        """
        session = conn.session
        flavor, data = item
        if flavor == "codec":
            try:
                kind, payload = wire_codec.decode_message(data)
            except wire_codec.CodecError as exc:
                return _pickled_reply_buffers(
                    (KIND_ERROR, MalformedMessageError(str(exc))),
                    self.max_frame_bytes), None
        else:
            kind, payload = data
        if kind in (KIND_BYE, KIND_SHUTDOWN):
            return None, kind
        if kind == KIND_PING:
            reply: Tuple[str, Any] = (KIND_PONG,
                                      {"residents":
                                       len(session.residents)})
        else:
            reply = self._handler(kind, payload, session.residents)
        return _reply_buffers(reply, conn.codec, self.max_frame_bytes), None


def serve_shard(host: str = "127.0.0.1", port: int = 0, *,
                max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                backlog: int = DEFAULT_LISTEN_BACKLOG,
                ready: Optional[Callable[[str, int], None]] = None,
                max_sessions: int = DEFAULT_MAX_SESSIONS,
                read_deadline: float = DEFAULT_READ_DEADLINE_S,
                handshake_timeout: float = _HANDSHAKE_TIMEOUT_S) -> None:
    """Run one shard server until a ``shutdown`` message arrives.

    The server hosts worker-resident clients exactly like a forked
    ``persistent`` slot: specs build residents once, then only
    weights/masks/RNG digests travel per cycle.  Several parent sessions
    are served
    concurrently by a :class:`ShardServer` event loop — one resident
    fleet per hello token (at most ``max_sessions`` retained), control
    traffic answered inline, heavy
    requests executed one at a time in round-robin order so every
    session's history stays bit-identical to a serial run.  A connection
    that stalls mid-frame longer than ``read_deadline`` seconds is
    dropped (its session stays resumable); transient ``accept`` failures
    back off and retry instead of killing the server.

    ``ready`` is called with the bound ``(host, port)`` once listening —
    the CLI prints the announce line from it, the auto-spawn mode and the
    tests read it back.
    """
    server = ShardServer(host, port, max_frame_bytes=max_frame_bytes,
                         backlog=backlog, max_sessions=max_sessions,
                         read_deadline=read_deadline,
                         handshake_timeout=handshake_timeout, ready=ready)
    try:
        server.serve_forever()
    finally:
        server.close()
