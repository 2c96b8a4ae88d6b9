"""Socket transport of the worker-resident execution backends.

This module is the one wire layer of :class:`~repro.fl.executor.
ShardedSocketBackend`, under both of its names: length-prefixed message
framing over a stream socket, a version-checked hello handshake, and
the shard server that hosts worker-resident clients.  A local slot (of
``persistent``, or of ``sharded`` without addresses) is that server in
a forked child serving one end of a ``socket.socketpair()`` (no
listener, no port); a ``sharded`` backend given ``--shards`` addresses
reaches the same server behind the ``repro shard-worker`` CLI on a TCP
port.  Either way a shard serves one parent.

Framing
-------
Every frame is a 4-byte big-endian unsigned length followed by exactly
that many payload bytes, and every payload, in both directions, is a
codec frame (:mod:`repro.fl.codec`, magic ``0xEC``): the ``(kind,
payload)`` skeleton as a protocol-5 pickle plus raw out-of-band ndarray
segments, self-contained.  Control messages (hello, ping, shutdown,
error replies) are codec frames like the executor's wire batches
(:class:`~repro.fl.executor._WireFoldBatch` and friends);
:meth:`MessageChannel.send_frame` writes a frame's segments with one
vectored ``sendmsg`` so encoding stays copy-free end to end.

Malformed traffic never hangs and never surfaces as a bare socket error:

* a connection closed cleanly *between* frames raises
  :class:`ConnectionClosedError`;
* a connection dying *inside* a frame (header or payload) raises
  :class:`TruncatedFrameError`;
* a header announcing more than ``max_frame_bytes`` raises
  :class:`FrameTooLargeError` before any payload is read (the stream is
  unrecoverable afterwards — close the connection);
* a payload that is not a codec frame of a ``(kind, payload)`` tuple,
  or one of another codec version, raises
  :class:`MalformedMessageError`;
* a hello refused for its protocol version raises
  :class:`ProtocolVersionError` on the connecting side.

Handshake
---------
The connecting side opens every connection — a TCP connect or a
forked slot's socketpair alike (:func:`handshake`) — with ``("hello",
{"protocol": PROTOCOL_VERSION})``; the shard replies ``("hello-ack",
{"protocol": PROTOCOL_VERSION})`` or ``("error", ProtocolVersionError(
...))`` and closes.  The version is required: the shard refuses a
hello whose protocol version is missing or not its own, so a mismatched
pair fails at the hello instead of on the first batch.  The codec
layout is versioned by byte 1 of every frame, the hello's included, and
:func:`~repro.fl.codec.decode_message` refuses a frame of another
version before its skeleton is read: the shard drops such a hello
unread.  A protocol-2 peer speaks plain pickles, so the shard drops its
hello unread too, and a protocol-2 shard's refusal is a plain pickle
the parent refuses to read (:class:`MalformedMessageError`).  Both
sides run the handshake under a timeout, so a mismatched or silent peer
fails fast instead of blocking a fleet start-up forever.

One parent per shard
--------------------
The shard server (:class:`ShardServer`, behind :func:`serve_shard`) is
a blocking request/reply loop in the calling thread: it reads one frame
from its connection through a :class:`MessageChannel`, answers it, and
reads the next, so requests execute strictly one at a time in arrival
order — which is what keeps a run bit-identical to the serial backend.
Between frames it waits on its connection and its listener together.
A newcomer's hello is read under the handshake timeout; while a
connection is live the newcomer is answered ``("error",
ProtocolError("shard busy: …"))`` and closed, and the live connection
never notices.  Otherwise it is admitted.

A shard's resident clients belong to its connection: they are built
from the specs that connection ships and dropped when it closes, for
whatever reason.  A parent that reconnects — after a dropped
connection, a failover or a whole new run — starts from an empty fleet
and re-ships its specs; every batch carries each client's RNG digest,
so the rebuilt residents train exactly as the lost ones would have.

A server built around one already-connected socket (a forked local
slot) has no listener: it serves that connection and ends when it
closes.

Liveness
--------
``ping`` frames are answered with ``("pong", {"residents": ...})``
between requests (a monitoring probe, sent only between batches — see
:meth:`~repro.fl.executor.ShardedSocketBackend.check_health`; the
backend itself finds a dead shard by its closed connection and a hung
one by :data:`~repro.fl.executor.REPLY_DEADLINE_S`).  Two
deadlines guard the loop: a connection that stalls *mid-frame* (or
stops reading a reply) for longer than ``read_deadline`` seconds is
dropped, with its residents, and a newcomer that never completes the
hello is dropped after the handshake timeout.  Idle time
between frames is unbounded.  Transient ``listener.accept()`` failures
(``EMFILE``, ``ECONNABORTED``, …) pause accepting with exponential
backoff and a one-line stderr diagnostic instead of silently killing a
long-running shard.

Trust boundary
--------------
A payload that is not a codec frame is refused with a
:class:`MalformedMessageError` reply before anything is unpickled.  A
codec frame's skeleton is still a pickle, though, and a shard
*executes* what it is sent (specs build models, a virtual fleet's
recipe builds clients) — that is the backend's job, and it means **any
peer that can reach a shard port can run code as the shard user**
until the skeleton goes through an allow-listed unpickler.  There is no
authentication layer yet.  The default bind
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
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import codec as wire_codec
from .codec import (KIND_ERROR, KIND_HELLO, KIND_HELLO_ACK, KIND_PING,
                    KIND_PONG, KIND_SHUTDOWN)

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
#: segments — see :mod:`repro.fl.codec`, which versions its own layout);
#: version 3 made it the only payload format (a protocol-2 hello is a
#: plain pickle); version 4 dropped hello session tokens and the hello's
#: codec entry (a shard's residents die with their connection).
PROTOCOL_VERSION = 4

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

#: Pickle protocol of the picklability probe for shipped exceptions.
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

_HEADER = struct.Struct(">I")

#: Seconds both sides allow the hello handshake to take (a hello takes
#: well under a second on loopback).
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
    """A frame's payload was not a codec frame of a ``(kind, payload)``."""


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
    ``(host, port)`` tuples; the port must be a decimal number in
    1-65535.
    """
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"shard address {address!r} is not of the form 'host:port'")
    else:
        try:
            host, port = address
        except (TypeError, ValueError):
            raise ValueError(f"cannot parse shard address {address!r}; "
                             f"expected 'host:port' or (host, port)") from None
        host, port = str(host), str(port)
    if not port.isdecimal():
        raise ValueError(f"shard address {address!r} has a non-integer "
                         f"port (expected 'host:port')")
    if not 0 < int(port) <= 0xFFFF:
        raise ValueError(f"shard address {address!r} has a port outside "
                         f"1-65535 (expected 'host:port')")
    return host, int(port)


def format_address(address: Tuple[str, int]) -> str:
    """``host:port`` rendering used in logs and error messages."""
    return f"{address[0]}:{address[1]}"


class MessageChannel:
    """One framed, message-oriented connection over a stream socket.

    Thin and stateless beyond the socket itself.  Every frame is a codec
    frame: ``send``/``recv`` encode and decode whole ``(kind, payload)``
    messages, ``send_frame`` sends a frame encoded beforehand (the
    backend encodes batches itself to measure dispatch bytes, and its
    control messages once at import), and ``recv_bytes`` hands back a
    payload undecoded.  ``close`` is idempotent and safe to call during
    interpreter shutdown.
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
        # Nagle would hold a small frame (ping/pong, error replies) back
        # until the peer ACKs the previous one — a delayed-ACK round
        # trip per frame.  Request/reply traffic never benefits from
        # coalescing, so disable it outright.
        self.set_tcp_nodelay(True)
        #: Chaos-engineering hook (``None`` in production): a callable
        #: ``(frame_kind, total_bytes) -> Optional[FrameFault]``
        #: consulted before :meth:`send_frame` sends a request frame
        #: (``WIRE_KINDS[kind] == "request"``: ``fold``, ``vfold``).
        #: Control frames (hellos, pings, shutdowns) never pass
        #: through it: their wall-clock-paced traffic must not consume
        #: the injector's deterministic fault stream.  See
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
        if (self.fault_injector is not None
                and wire_codec.WIRE_KINDS.get(frame.kind) == "request"):
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
        """Encode and send one ``(kind, payload)`` message."""
        self.send_frame(wire_codec.encode_message(message))

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
        the decoded arrays writable.
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
                     protocol: int = PROTOCOL_VERSION) -> MessageChannel:
    """Connect to a shard server and run the hello handshake.

    The TCP half of opening a slot: connect (bounded by ``timeout``),
    then :func:`handshake` with the same keywords.
    """
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    return handshake(MessageChannel(sock, max_frame_bytes),
                     format_address((host, port)), timeout=timeout,
                     protocol=protocol)


def handshake(channel: MessageChannel, peer: str, *,
              timeout: float = HANDSHAKE_TIMEOUT_S,
              protocol: int = PROTOCOL_VERSION) -> MessageChannel:
    """Run the hello handshake on a connected channel.

    ``peer`` names the shard in errors (``host:port``, or a forked
    slot's label).  Returns ``channel`` ready for batches, with no
    operation timeout (batches may legitimately train for a long time).
    Raises :class:`ProtocolVersionError` if the shard rejects our
    protocol version, and ordinary :class:`TransportError` subclasses on
    a dropped hello or a malformed reply — a protocol-2 shard's
    plain-pickle refusal among them — never hangs past ``timeout``.  On
    any failure the channel is closed.  The shard serving the returned
    channel holds no residents.
    """
    try:
        channel.settimeout(timeout)
        channel.send((KIND_HELLO, {"protocol": protocol}))
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
    channel.settimeout(None)
    return channel


# --------------------------------------------------------------------- #
# reply encoding (server side)
# --------------------------------------------------------------------- #

def _reply_frame(reply: Tuple[str, Any],
                 max_frame_bytes: int) -> "wire_codec.EncodedFrame":
    """The codec frame of one reply; never fails.

    The parent is blocked waiting for exactly one reply, so a reply that
    does not encode or exceeds the frame limit must not be silently
    dropped (that would hang the fleet) nor crash the server: it is
    replaced by a small ``("error", ...)`` frame explaining the failure,
    naming the reply kind and its skeleton-vs-ndarray size breakdown
    when it was the frame limit that bit.
    """
    try:
        frame = wire_codec.encode_message(reply)
    except Exception as exc:
        return wire_codec.encode_message((KIND_ERROR, RuntimeError(
            f"shard reply does not encode: {exc!r}")))
    if frame.total_bytes > max_frame_bytes:
        return wire_codec.encode_message((KIND_ERROR, FrameTooLargeError(
            f"shard reply is an oversized {frame.kind!r} frame "
            f"(max_frame_bytes={max_frame_bytes}; "
            f"{frame.describe()})")))
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


class ShardServer:
    """Blocking request/reply shard server, one parent at a time.

    :meth:`serve_forever` runs in the calling thread: it reads one frame
    from the live connection's :class:`MessageChannel`, answers it —
    control kinds (ping, shutdown, malformed frames) inline,
    ``fold``/``vfold`` through the resident-request handler —
    and reads the next.  Requests therefore execute one at a time in
    arrival order, which keeps a run bit-identical to the serial
    backend.  Between frames the server waits on its connection and its
    listener together; a newcomer is admitted with an empty resident
    fleet when no connection is live and refused ``shard busy``
    otherwise (see the module docstring).  Construct directly only in
    tests (it exposes the bound ``address`` before serving) and in a
    forked local slot; the other production entry points are
    :func:`serve_shard` and the ``repro shard-worker`` CLI.

    ``connection`` (an already-connected stream socket, e.g. one end of
    a ``socket.socketpair()``) replaces the listener: the server then
    has no ``address``, serves that one connection, and its loop ends
    when the connection closes or a ``shutdown`` arrives.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 read_deadline: float = DEFAULT_READ_DEADLINE_S,
                 handshake_timeout: float = HANDSHAKE_TIMEOUT_S,
                 ready: Optional[Callable[[str, int], None]] = None,
                 connection: Optional[socket.socket] = None) -> None:
        if read_deadline <= 0:
            raise ValueError("read_deadline must be positive")
        self.max_frame_bytes = max_frame_bytes
        self.read_deadline = read_deadline
        self.handshake_timeout = handshake_timeout
        self._ready_callback = ready
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
                self._listener.listen(DEFAULT_LISTEN_BACKLOG)
                self._listener.setblocking(False)
            except OSError:
                self._listener.close()
                raise
            self.address = self._listener.getsockname()[:2]
        # Imported lazily: executor imports this module at load time.
        from .executor import _ChunkMemo, _handle_resident_request
        self._handler = _handle_resident_request
        #: The live connection (``None`` between parents), the resident
        #: fleet the handler builds for it and its virtual chunks'
        #: inputs; all go on hang-up.
        self._channel: Optional[MessageChannel] = None
        self._residents: Dict[int, Any] = {}
        self._chunk_memo = _ChunkMemo()
        self._running = False
        self._accept_failures = 0
        self._accept_paused_until: Optional[float] = None

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        """Serve until a ``shutdown`` frame arrives, then tear down."""
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
            # The live parent first: a hang-up already in its stream
            # must be seen before a newcomer is judged busy (a parent
            # reconnecting after closing its channel is that newcomer).
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
            # Silent, truncated or oversized hello, or one the codec
            # refuses (another codec version, a protocol-2 plain
            # pickle): drop it unread.
            channel.close()
            return
        refusal = self._hello_refusal(kind, payload)
        if refusal is not None:
            try:
                channel.send((KIND_ERROR, refusal))
            except (TransportError, OSError):
                pass  # the newcomer is gone; nobody to tell
            channel.close()
            return
        self._channel = channel
        channel.settimeout(self.read_deadline)
        self._send((KIND_HELLO_ACK, {"protocol": PROTOCOL_VERSION}))

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
        if self._channel is not None:
            return ProtocolError(
                "shard busy: it serves one parent at a time and another "
                "parent is connected")
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
            self._send((KIND_ERROR, exc))
            return
        except (TransportError, OSError) as exc:
            # A hang-up, a truncated or oversized frame (the stream is
            # unrecoverable), or a stall past the read deadline.
            self._drop(exc)
            return
        if kind == KIND_SHUTDOWN:
            self._running = False
            return
        if kind == KIND_PING:
            reply: Tuple[str, Any] = (KIND_PONG,
                                      {"residents": len(self._residents)})
        else:
            try:
                reply = self._handler(kind, payload, self._residents,
                                      self._chunk_memo)
            except Exception as exc:  # belt and braces: never die
                reply = (KIND_ERROR, _picklable_exception(exc))
        self._send(reply)

    def _send(self, reply: Tuple[str, Any]) -> None:
        """Encode one reply and write it to the live connection; a failed
        write drops the connection."""
        try:
            self._channel.send_frame(_reply_frame(reply,
                                                  self.max_frame_bytes))
        except (TransportError, OSError) as exc:
            self._drop(exc)

    def _drop(self, exc: BaseException) -> None:
        """Hang up on a dead or wedged live connection."""
        if isinstance(exc, socket.timeout):
            print(f"repro shard-worker: dropping stalled connection "
                  f"{_peer_label(self._channel._socket())} (no progress "
                  f"for {self.read_deadline:.0f}s mid-frame)",
                  file=sys.stderr)
        self._hang_up()

    def _hang_up(self) -> None:
        """Close the live connection and drop its residents and memo."""
        if self._channel is not None:
            self._channel.close()
        self._channel = None
        self._residents.clear()
        self._chunk_memo.clear()


def serve_shard(host: str = "127.0.0.1", port: int = 0, *,
                max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                ready: Optional[Callable[[str, int], None]] = None,
                read_deadline: float = DEFAULT_READ_DEADLINE_S,
                handshake_timeout: float = HANDSHAKE_TIMEOUT_S) -> None:
    """Run one shard server until a ``shutdown`` message arrives.

    The server hosts worker-resident clients exactly like a forked
    ``persistent`` slot: specs build residents once, then only
    weights/masks/RNG digests travel per cycle.  It serves one parent at
    a time (:class:`ShardServer`), requests in arrival order, so a run
    stays bit-identical to a serial one; while a connection is live a
    newcomer is refused ``shard busy``, and the residents a connection
    built die with it.  A connection that stalls mid-frame longer than
    ``read_deadline`` seconds is dropped; transient ``accept`` failures
    back off and retry instead of killing the server.

    ``ready`` is called with the bound ``(host, port)`` once listening —
    the CLI prints the announce line from it, which scripts and tests
    read back.
    """
    server = ShardServer(host, port, max_frame_bytes=max_frame_bytes,
                         read_deadline=read_deadline,
                         handshake_timeout=handshake_timeout, ready=ready)
    try:
        server.serve_forever()
    finally:
        server.close()
