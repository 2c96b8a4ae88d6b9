"""Socket transport of the worker-resident execution backends.

This module is the one wire layer of :class:`~repro.fl.executor.
ShardedSocketBackend`, under both of its names: length-prefixed message
framing over a stream socket, a version-checked hello handshake, and
the shard server that hosts worker-resident clients.  A ``sharded``
slot is that server behind the ``repro shard-worker`` CLI on a TCP
port; a ``persistent`` slot is the same server in a forked child
serving one end of a ``socket.socketpair()`` (no listener, no port).
Either way a shard serves one parent.

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
(:class:`~repro.fl.executor._WireFoldBatch` and friends), whatever the
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

One parent per shard
--------------------
The shard server (:class:`ShardServer`, behind :func:`serve_shard`) is
a blocking request/reply loop in the calling thread: it reads one frame
from its connection through a :class:`MessageChannel`, answers it, and
reads the next, so requests execute strictly one at a time in arrival
order — which is what keeps a run bit-identical to the serial backend.
Between frames it waits on its connection and its listener together;
a newcomer's hello is read under the handshake timeout and then:

* carries the live session's token — it takes the session over and the
  stale predecessor is closed;
* carries any other token, or none, while a session is live — it is
  answered ``("error", ProtocolError("shard busy: …"))`` and closed, and
  the live session never notices.

A server built around one already-connected socket (a forked local
slot) has no listener: it serves that connection and ends when it
closes.

Reconnects and resident state
-----------------------------
A shard retains one session's resident clients across connection
drops: a parent that reconnects with the same ``session`` token resumes
them (the ack carries ``"resumed": True``) instead of re-shipping every
spec — this is what makes failover of a neighbouring shard cheap,
because the surviving shards' fleets survive the reconnect.  A new
token arriving while no connection is live replaces the retained
session and starts clean; a hello without a token gets a private fleet
that dies with the connection; a polite ``bye`` retires the session's
fleet and forgets its token.  A token must be a string.

Liveness
--------
``ping`` frames are answered with ``("pong", {"residents": ...})``
between requests (a monitoring probe, sent only between batches — see
:meth:`~repro.fl.executor.ShardedSocketBackend.check_health`; the
backend itself finds a dead shard by its closed connection and a hung
one by :data:`~repro.fl.executor.REPLY_DEADLINE_S`).  Two
deadlines guard the loop: a connection that stalls *mid-frame* (or
stops reading a reply) for longer than ``read_deadline`` seconds is
dropped — its session stays resumable — and a newcomer that never
completes the hello is dropped after the handshake timeout.  Idle time
between frames is unbounded.  Transient ``listener.accept()`` failures
(``EMFILE``, ``ECONNABORTED``, …) pause accepting with exponential
backoff and a one-line stderr diagnostic instead of silently killing a
long-running shard.

Trust boundary
--------------
Payloads are pickles and a shard *executes* what it is sent (specs
build models, a virtual fleet's recipe builds clients) — that is the
backend's job, and
it means **any peer that can reach a shard port can run code as the
shard user**.  There is no authentication layer yet.  The default bind
address is loopback; bind non-loopback addresses (``--host 0.0.0.0``)
only on networks where every host is already trusted, e.g. behind a
private interface or an SSH tunnel/WireGuard mesh.
"""

from __future__ import annotations

import pickle
import select
import socket
import struct
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from . import codec as wire_codec
from .codec import (KIND_BYE, KIND_ERROR, KIND_HELLO, KIND_HELLO_ACK,
                    KIND_PING, KIND_PONG, KIND_SHUTDOWN)

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_LISTEN_BACKLOG",
    "DEFAULT_READ_DEADLINE_S",
    "HANDSHAKE_TIMEOUT_S",
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

#: Listen backlog of the shard server.  Newcomers are accepted between
#: requests, but reconnects racing a half-closed predecessor (failover
#: resets every channel at once) must be able to queue instead of
#: having their SYNs dropped — ``listen(1)`` made a second connection in
#: quick succession hang until its connect timeout.
DEFAULT_LISTEN_BACKLOG = 128

#: Default seconds a connection may stall *mid-frame* (or leave a reply
#: unread) before the server drops it.  Idle time between complete
#: frames is unlimited — parents legitimately sit idle between cycles —
#: so this only bounds wedged peers, not quiet ones.
DEFAULT_READ_DEADLINE_S = 600.0

#: Pickle protocol for shard traffic (matches the executor's control blobs).
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

_HEADER = struct.Struct(">I")

#: Seconds both sides allow the hello handshake to take; the resident
#: backends also give a spawned shard this long to announce its port
#: (a spawn and hello take well under a second on loopback).
HANDSHAKE_TIMEOUT_S = 20.0

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

    def fileno(self) -> int:
        """The socket's descriptor, so a channel can be ``select``-ed."""
        return self._socket().fileno()

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
        """Receive and decode one ``(kind, payload)`` message."""
        try:
            return wire_codec.decode_message(self.recv_bytes())
        except wire_codec.CodecError as exc:
            raise MalformedMessageError(str(exc)) from None

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
                     timeout: float = HANDSHAKE_TIMEOUT_S,
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
              timeout: float = HANDSHAKE_TIMEOUT_S,
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

def _pickled_reply(reply: Tuple[str, Any], max_frame_bytes: int) -> bytes:
    """Frame payload of a plain-pickled reply.

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
    return blob


def _encoded_reply(reply: Tuple[str, Any], codec: bool,
                   max_frame_bytes: int
                   ) -> Union[bytes, "wire_codec.EncodedFrame"]:
    """A reply under the connection's negotiated framing.

    ``codec`` selects codec framing (an encoded frame for
    :meth:`MessageChannel.send_frame`; ``False`` = a plain pickle, for
    connections that did not negotiate the codec).  Degradation follows
    :func:`_pickled_reply`: an unencodable or oversized reply becomes a
    small plain-pickled ``("error", ...)`` naming the reply kind and its
    skeleton-vs-ndarray size breakdown when it was the frame limit that
    bit.
    """
    if not codec:
        return _pickled_reply(reply, max_frame_bytes)
    try:
        frame = wire_codec.encode_message(reply)
    except Exception as exc:
        return _pickled_reply((KIND_ERROR, RuntimeError(
            f"shard reply does not encode: {exc!r}")), max_frame_bytes)
    if frame.total_bytes > max_frame_bytes:
        return _pickled_reply((KIND_ERROR, FrameTooLargeError(
            f"shard reply is an oversized {frame.kind!r} frame "
            f"(max_frame_bytes={max_frame_bytes}; "
            f"{frame.describe()})")), max_frame_bytes)
    return frame


# --------------------------------------------------------------------- #
# shard server
# --------------------------------------------------------------------- #

def _peer_label(sock: socket.socket) -> str:
    """``host:port`` of a connection's peer, for diagnostics.

    An AF_UNIX socketpair end (a forked slot) has no address: its
    ``getpeername()`` is ``''``.
    """
    try:
        peer = sock.getpeername()
    except OSError:
        return "?"
    return (format_address(peer[:2]) if isinstance(peer, tuple)
            else peer or "local")


class _Session:
    """One parent's resident fleet, under its hello token.

    ``residents`` is the fleet :func:`~repro.fl.executor.
    _handle_resident_request` mutates.  An anonymous session (``token``
    ``None``) is never retained: it dies with its connection.
    """

    __slots__ = ("token", "residents")

    def __init__(self, token: Optional[str]) -> None:
        self.token = token
        self.residents: Dict[int, Any] = {}


class ShardServer:
    """Blocking request/reply shard server, one parent at a time.

    :meth:`serve_forever` runs in the calling thread: it reads one frame
    from the live connection's :class:`MessageChannel`, answers it —
    control kinds (ping, bye, shutdown, malformed frames) inline,
    ``fold``/``vfold`` through the resident-request handler —
    and reads the next.  Requests therefore execute one at a time in
    arrival order, which keeps a run bit-identical to the serial
    backend.  Between frames the server waits on its connection and its
    listener together; a newcomer's hello takes the live session over
    (same token), resumes or replaces the retained session (no live
    connection), or is refused ``shard busy`` (see the module
    docstring).  Construct directly only in tests (it exposes the bound
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
                 read_deadline: float = DEFAULT_READ_DEADLINE_S,
                 handshake_timeout: float = HANDSHAKE_TIMEOUT_S,
                 ready: Optional[Callable[[str, int], None]] = None,
                 handler: Optional[Callable] = None,
                 connection: Optional[socket.socket] = None) -> None:
        if read_deadline <= 0:
            raise ValueError("read_deadline must be positive")
        self.max_frame_bytes = max_frame_bytes
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
        #: The live connection and its session (``None`` between parents).
        self._channel: Optional[MessageChannel] = None
        self._session: Optional[_Session] = None
        #: Whether the live connection's hello agreed on the wire codec.
        self._codec = False
        #: The tokened session a reconnecting parent resumes.
        self._retained: Optional[_Session] = None
        self._running = False
        self._accept_failures = 0
        self._accept_paused_until: Optional[float] = None

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        """Serve until a ``shutdown`` frame arrives, then tear down."""
        if self._handler is None:
            # Imported lazily: executor imports this module at load time.
            from .executor import _handle_resident_request
            self._handler = _handle_resident_request
        self._running = True
        if self._ready_callback is not None:
            self._ready_callback(*self.address)
        try:
            if self._listener is None:
                self._greet(self._connection)
            # A listener-less server ends with its one connection.
            while self._running and (self._listener is not None
                                     or self._channel is not None):
                self._serve_next()
        finally:
            self._running = False
            self._hang_up()
            self._retained = None
            self.close()

    def close(self) -> None:
        """Close the listener (idempotent; ends a running serve loop).

        Shutting the listener down before closing it wakes a ``select``
        blocked on it in another thread at once.
        """
        self._running = False
        listener = self._listener
        if listener is None:
            return
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not listening any more
        listener.close()

    def _serve_next(self) -> None:
        """Wait for the next frame or newcomer, then serve it."""
        # poll, not select: a forked slot may inherit descriptor numbers
        # past select's FD_SETSIZE from a busy parent.
        poller = select.poll()
        if self._channel is not None:
            poller.register(self._channel, select.POLLIN)
        timeout_ms: Optional[float] = None
        listener = self._listener
        if listener is not None:
            if listener.fileno() == -1:  # closed by another thread
                self._running = False
                return
            if self._accept_paused_until is None:
                poller.register(listener, select.POLLIN)
            else:
                timeout_ms = (self._accept_paused_until
                              - time.monotonic()) * 1e3
                if timeout_ms <= 0:
                    self._accept_paused_until = None
                    return
        ready = {fd for fd, _ in poller.poll(timeout_ms)}
        if not self._running:
            return
        if self._channel is not None and self._channel.fileno() in ready:
            # The live parent first: a ``bye`` or hang-up already in its
            # stream must be seen before a newcomer is judged busy.
            self._serve_frame()
        elif listener is not None and listener.fileno() in ready:
            sock = self._accept_one()
            if sock is not None:
                self._greet(sock)

    # ------------------------------------------------------------------ #
    # newcomers
    # ------------------------------------------------------------------ #

    def _accept(self) -> Tuple[socket.socket, Any]:
        """One ``accept()`` call (separate so tests can inject failures)."""
        return self._listener.accept()

    def _accept_one(self) -> Optional[socket.socket]:
        """Accept one newcomer; a transient failure pauses accepting."""
        try:
            sock, _ = self._accept()
        except (BlockingIOError, InterruptedError):
            return None  # the newcomer gave up before we got to it
        except OSError as exc:
            if not self._running or self._listener.fileno() == -1:
                # The listener itself is gone — nothing left to serve.
                self._running = False
                return None
            # Transient (EMFILE, ECONNABORTED, ...): pause accepting
            # with exponential backoff instead of dying; the live
            # connection keeps being served throughout.
            self._accept_failures += 1
            delay = min(_ACCEPT_BACKOFF_MAX_S,
                        _ACCEPT_BACKOFF_MIN_S
                        * (2 ** (self._accept_failures - 1)))
            print(f"repro shard-worker: accept() failed ({exc}); "
                  f"retrying in {delay:.2f}s", file=sys.stderr)
            self._accept_paused_until = time.monotonic() + delay
            return None
        self._accept_failures = 0
        return sock

    def _greet(self, sock: socket.socket) -> None:
        """Read a newcomer's hello; admit it, or refuse it and hang up."""
        channel = MessageChannel(sock, self.max_frame_bytes)
        try:
            channel.settimeout(self.handshake_timeout)
            kind, payload = channel.recv()
        except (TransportError, OSError):
            # Silent, truncated, oversized or garbage hello: drop it.
            channel.close()
            return
        refusal = self._hello_refusal(kind, payload)
        if refusal is not None:
            try:
                channel.send_bytes(_pickled_reply((KIND_ERROR, refusal),
                                                  self.max_frame_bytes))
            except (TransportError, OSError):
                pass  # the newcomer is gone; nobody to tell
            channel.close()
            return
        token = payload.get("session")
        retained = self._retained
        resumed = (token is not None and retained is not None
                   and retained.token == token)
        if self._channel is not None:
            # The live session's own token: take it over and drop the
            # stale predecessor.
            self._channel.close()
        if resumed:
            session = retained
        else:
            session = _Session(token)
            if token is not None:
                self._retained = session
        self._channel, self._session = channel, session
        self._codec = isinstance(payload.get("codec"), dict)
        channel.settimeout(self.read_deadline)
        ack = {"protocol": PROTOCOL_VERSION, "resumed": resumed,
               "residents": len(session.residents),
               "codec": ({"version": wire_codec.CODEC_VERSION}
                         if self._codec else None)}
        self._send(_pickled_reply((KIND_HELLO_ACK, ack),
                                  self.max_frame_bytes))

    def _hello_refusal(self, kind: str, payload: Any
                       ) -> Optional[ProtocolError]:
        """Why a hello is refused, or ``None`` to admit it."""
        if kind != KIND_HELLO or not isinstance(payload, dict):
            return ProtocolError(f"expected a hello, got {kind!r}")
        peer_version = payload.get("protocol")
        if peer_version != PROTOCOL_VERSION:
            return ProtocolVersionError(
                f"shard speaks protocol {PROTOCOL_VERSION}, "
                f"client sent {peer_version!r}")
        requested_codec = payload.get("codec")
        if (isinstance(requested_codec, dict)
                and requested_codec.get("version")
                != wire_codec.CODEC_VERSION):
            return ProtocolVersionError(
                f"shard speaks codec version {wire_codec.CODEC_VERSION}, "
                f"client sent {requested_codec.get('version')!r}")
        token = payload.get("session")
        if token is not None and not isinstance(token, str):
            return ProtocolError(
                f"hello session token must be a string or absent, got "
                f"{type(token).__name__}")
        if self._channel is not None and (token is None
                                          or token != self._session.token):
            return ProtocolError(
                "shard busy: it serves one parent at a time and another "
                "parent's session is live")
        return None

    # ------------------------------------------------------------------ #
    # the live connection
    # ------------------------------------------------------------------ #

    def _serve_frame(self) -> None:
        """Read one frame from the live connection and answer it."""
        try:
            kind, payload = self._channel.recv()
        except MalformedMessageError as exc:
            # Framing is intact, only this payload was garbage: report
            # it and keep serving.
            self._send(_pickled_reply((KIND_ERROR, exc),
                                      self.max_frame_bytes))
            return
        except (TransportError, OSError) as exc:
            # A hang-up, a truncated or oversized frame (the stream is
            # unrecoverable), or a stall past the read deadline.
            self._drop(exc)
            return
        session = self._session
        if kind == KIND_BYE:
            # The run is over: a same-token reconnect must start clean
            # instead of resuming an emptied fleet.
            session.residents.clear()
            if session is self._retained:
                self._retained = None
            self._hang_up()
            return
        if kind == KIND_SHUTDOWN:
            self._running = False
            return
        if kind == KIND_PING:
            reply: Tuple[str, Any] = (KIND_PONG,
                                      {"residents": len(session.residents)})
        else:
            try:
                reply = self._handler(kind, payload, session.residents)
            except Exception as exc:  # belt and braces: never die
                self._send(_pickled_reply(
                    (KIND_ERROR, _picklable_exception(exc)),
                    self.max_frame_bytes))
                return
        self._send(_encoded_reply(reply, self._codec, self.max_frame_bytes))

    def _send(self, reply: Union[bytes, "wire_codec.EncodedFrame"]) -> None:
        """Write one reply to the live connection; a failed write drops it."""
        try:
            if isinstance(reply, bytes):
                self._channel.send_bytes(reply)
            else:
                self._channel.send_frame(reply)
        except (TransportError, OSError) as exc:
            self._drop(exc)

    def _drop(self, exc: BaseException) -> None:
        """Hang up on a dead or wedged live connection."""
        if isinstance(exc, socket.timeout):
            print(f"repro shard-worker: dropping stalled connection "
                  f"{_peer_label(self._channel._socket())} (no progress "
                  f"for {self.read_deadline:.0f}s mid-frame); its session "
                  f"stays resumable", file=sys.stderr)
        self._hang_up()

    def _hang_up(self) -> None:
        """Close the live connection; a tokened session stays retained."""
        if self._channel is not None:
            self._channel.close()
        self._channel = self._session = None


def serve_shard(host: str = "127.0.0.1", port: int = 0, *,
                max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                backlog: int = DEFAULT_LISTEN_BACKLOG,
                ready: Optional[Callable[[str, int], None]] = None,
                read_deadline: float = DEFAULT_READ_DEADLINE_S,
                handshake_timeout: float = HANDSHAKE_TIMEOUT_S) -> None:
    """Run one shard server until a ``shutdown`` message arrives.

    The server hosts worker-resident clients exactly like a forked
    ``persistent`` slot: specs build residents once, then only
    weights/masks/RNG digests travel per cycle.  It serves one parent at
    a time (:class:`ShardServer`), requests in arrival order, so a run
    stays bit-identical to a serial one; while a session is live a
    second parent is refused ``shard busy``, and the same parent
    reconnecting with its token takes the session over.  A connection
    that stalls mid-frame longer than ``read_deadline`` seconds is
    dropped (its session stays resumable); transient ``accept`` failures
    back off and retry instead of killing the server.

    ``ready`` is called with the bound ``(host, port)`` once listening —
    the CLI prints the announce line from it, the auto-spawn mode and the
    tests read it back.
    """
    server = ShardServer(host, port, max_frame_bytes=max_frame_bytes,
                         backlog=backlog, read_deadline=read_deadline,
                         handshake_timeout=handshake_timeout, ready=ready)
    try:
        server.serve_forever()
    finally:
        server.close()
