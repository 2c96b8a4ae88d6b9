"""Protocol tests for the shard transport (:mod:`repro.fl.transport`).

The contract: framed messages round-trip losslessly as codec frames,
every category of malformed traffic (truncated frames, oversized
announcements, garbage or plain-pickle payloads, version-mismatched
hellos) surfaces as an explicit
:class:`TransportError` subclass instead of a hang or a bare socket
error, and the shard server survives misbehaving connections —
including connections racing each other into the listen backlog,
reconnects, which start from an empty resident fleet, and a second
parent, which is refused while the first one is connected.
"""

import contextlib
import errno
import os
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest
from repro.fl import FLClient, codec
from repro.fl.executor import make_backend
from repro.fl.transport import (PROTOCOL_VERSION, ConnectionClosedError,
                                FrameTooLargeError, MalformedMessageError,
                                MessageChannel, ProtocolError,
                                ProtocolVersionError, ShardServer,
                                TransportError, TruncatedFrameError,
                                _peer_label, connect_to_shard,
                                format_address, handshake, parse_address,
                                serve_shard)

from ..conftest import TouchOnUnpickle, touch


def _channel_pair(max_frame_bytes=1 << 20):
    left, right = socket.socketpair()
    return (MessageChannel(left, max_frame_bytes),
            MessageChannel(right, max_frame_bytes))


def _send_raw(channel, payload):
    """Write ``payload`` as one length-prefixed frame, whatever it is."""
    channel._socket().sendall(struct.pack(">I", len(payload)) + payload)


def _skeleton_frame(obj):
    """A one-segment codec frame whose skeleton is ``obj``, any shape."""
    skeleton = pickle.dumps(obj, 5)
    return (codec._HEADER.pack(codec.CODEC_MAGIC, codec.CODEC_VERSION,
                               0, 0, 1)
            + codec._SEGMENT_ENTRY.pack(len(skeleton), 0) + skeleton)


@contextlib.contextmanager
def _shard_server(**kwargs):
    """A live in-process shard server; yields its (host, port)."""
    ready = threading.Event()
    address = {}

    def on_ready(host, port):
        address["host"], address["port"] = host, port
        ready.set()

    thread = threading.Thread(target=serve_shard,
                              kwargs={**kwargs, "ready": on_ready},
                              daemon=True)
    thread.start()
    assert ready.wait(timeout=10), "shard server did not come up"
    try:
        yield address["host"], address["port"]
    finally:
        # Shut the server down so the thread exits (and the port is
        # freed).
        try:
            channel = connect_to_shard((address["host"], address["port"]),
                                       timeout=5)
            channel.send(("shutdown", None))
            channel.close()
        except TransportError:
            pass  # already gone
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def shard_server():
    """Default-configured in-process shard server; yields (host, port)."""
    with _shard_server() as address:
        yield address


def _hello(address, hello):
    """Send a hand-made hello; returns the shard's ``(kind, payload)``."""
    with MessageChannel(socket.create_connection(address, timeout=5)) as raw:
        raw.send(("hello", hello))
        return raw.recv()


def _with_codec_version(frame, version):
    """The raw payload of ``frame`` with byte 1, the codec version,
    replaced."""
    blob = bytearray(frame.tobytes())
    blob[1] = version
    return bytes(blob)


@contextlib.contextmanager
def _fake_shard(answer):
    """A one-shot listener that answers the first hello with the raw
    payload ``answer``; yields its address and a list that receives the
    hello's raw payload."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    hellos = []

    def serve():
        conn, _ = listener.accept()
        with MessageChannel(conn) as channel:
            hellos.append(bytes(channel.recv_bytes()))
            _send_raw(channel, answer)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname(), hellos
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


class TestAddressParsing:
    def test_host_port_string(self):
        assert parse_address("node-3:7600") == ("node-3", 7600)

    def test_tuple_passthrough(self):
        assert parse_address(("10.0.0.1", 7601)) == ("10.0.0.1", 7601)

    @pytest.mark.parametrize("bad", ["no-port", ":7600", "host:", 42,
                                     "h:0", "h:-1", "127.0.0.1:70000",
                                     "h:+80", "h: 80", ("h", 0),
                                     ("h", 65536)])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError, match="host:port"):
            parse_address(bad)

    def test_port_bounds_accepted(self):
        assert parse_address("h:1") == ("h", 1)
        assert parse_address("h:65535") == ("h", 65535)

    def test_format_round_trips(self):
        assert parse_address(format_address(("h", 1))) == ("h", 1)


class TestFraming:
    def test_message_round_trip(self):
        left, right = _channel_pair()
        payload = {"weights": np.arange(100.0), "nested": [1, (2, "x")]}
        left.send(("fold", payload))
        kind, received = right.recv()
        assert kind == "fold"
        np.testing.assert_array_equal(received["weights"],
                                      payload["weights"])
        assert received["nested"] == payload["nested"]
        left.close()
        right.close()

    def test_many_messages_in_order(self):
        left, right = _channel_pair()
        for index in range(20):
            left.send(("seq", index))
        assert [right.recv()[1] for _ in range(20)] == list(range(20))
        left.close()
        right.close()

    def test_empty_payload_frame(self):
        left, right = _channel_pair()
        _send_raw(left, b"")
        assert right.recv_bytes() == b""
        left.close()
        right.close()

    def test_clean_close_between_frames(self):
        left, right = _channel_pair()
        left.send(("ping", None))
        right.recv()
        left.close()
        with pytest.raises(ConnectionClosedError):
            right.recv()

    def test_truncated_header_raises(self):
        left, right = _channel_pair()
        left._socket().sendall(b"\x00\x00")  # half a length header
        left.close()
        with pytest.raises(TruncatedFrameError):
            right.recv()

    def test_truncated_payload_raises(self):
        left, right = _channel_pair()
        left._socket().sendall(struct.pack(">I", 100) + b"only-ten-b")
        left.close()
        with pytest.raises(TruncatedFrameError):
            right.recv()

    def test_oversized_announcement_raises(self):
        left, right = _channel_pair(max_frame_bytes=1024)
        left._socket().sendall(struct.pack(">I", 4096))
        with pytest.raises(FrameTooLargeError):
            right.recv()
        left.close()
        right.close()

    def test_oversized_send_rejected_locally(self):
        left, right = _channel_pair(max_frame_bytes=64)
        with pytest.raises(FrameTooLargeError):
            left.send(("fold", b"x" * 65))
        left.close()
        right.close()

    def test_garbage_payload_raises_malformed(self):
        left, right = _channel_pair()
        _send_raw(left, b"this is not a pickle")
        with pytest.raises(MalformedMessageError):
            right.recv()
        left.close()
        right.close()

    def test_plain_pickle_payload_raises_malformed(self):
        left, right = _channel_pair()
        _send_raw(left, pickle.dumps(("ping", None)))
        with pytest.raises(MalformedMessageError, match="not a codec frame"):
            right.recv()
        left.close()
        right.close()

    def test_non_tuple_message_raises_malformed(self):
        left, right = _channel_pair()
        _send_raw(left, _skeleton_frame({"kind": "fold"}))
        with pytest.raises(MalformedMessageError):
            right.recv()
        left.close()
        right.close()

    def test_closed_channel_refuses_io(self):
        left, right = _channel_pair()
        left.close()
        assert left.closed
        with pytest.raises(ConnectionClosedError):
            left.send(("ping", None))
        with pytest.raises(ConnectionClosedError):
            left.recv()
        left.close()  # idempotent
        right.close()

    @pytest.mark.parametrize("bad_limit", [0, -1, (1 << 32)])
    def test_invalid_max_frame_bytes_rejected(self, bad_limit):
        """Zero/negative limits and limits beyond the 4-byte header's
        range (which would make a send die in struct.pack) are
        rejected at construction."""
        left, right = socket.socketpair()
        with pytest.raises(ValueError):
            MessageChannel(left, max_frame_bytes=bad_limit)
        left.close()
        right.close()


class TestHandshake:
    def test_hello_round_trip(self, shard_server):
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send(("ping", None))
        kind, payload = channel.recv()
        assert kind == "pong"
        assert payload == {"residents": 0}
        channel.close()

    def test_version_mismatch_raises_instead_of_hanging(self, shard_server):
        with pytest.raises(ProtocolVersionError,
                           match=f"protocol {PROTOCOL_VERSION}"):
            connect_to_shard(shard_server, timeout=5,
                             protocol=PROTOCOL_VERSION + 1)

    def test_protocol_3_peers_fail_at_the_hello(self, shard_server):
        """A protocol-3 parent's hello (session token, codec entry) is
        refused with a typed error and the shard keeps serving; a
        protocol-3 shard refuses the protocol-4 hello, whose one field
        is the protocol version, and the parent raises that refusal."""
        kind, refusal = _hello(shard_server, {
            "protocol": 3, "session": "parent-a",
            "codec": {"version": codec.CODEC_VERSION}})
        assert kind == "error"
        assert isinstance(refusal, ProtocolVersionError)
        assert (f"shard speaks protocol {PROTOCOL_VERSION}, client sent 3"
                in str(refusal))
        connect_to_shard(shard_server, timeout=5).close()
        refusal = codec.encode_message(("error", ProtocolVersionError(
            f"shard speaks protocol 3, client sent {PROTOCOL_VERSION}")))
        with _fake_shard(refusal.tobytes()) as (address, hellos):
            with pytest.raises(ProtocolVersionError,
                               match="shard speaks protocol 3"):
                connect_to_shard(address, timeout=5)
        assert codec.decode_message(hellos[0]) == (
            "hello", {"protocol": PROTOCOL_VERSION})

    def test_other_codec_version_refused_unread(self, shard_server,
                                                tmp_path):
        """Byte 1 of every frame is its codec version, and a frame of
        another version is refused before its skeleton is unpickled: the
        shard drops such a hello unread (no marker appears) and keeps
        serving, and a parent refuses such an ack the same way."""
        marker = tmp_path / "unpickled"
        stale = codec.CODEC_VERSION - 1
        raw = MessageChannel(socket.create_connection(shard_server,
                                                      timeout=5))
        _send_raw(raw, _with_codec_version(codec.encode_message(
            ("hello", {"protocol": PROTOCOL_VERSION,
                       "probe": TouchOnUnpickle(str(marker))})), stale))
        raw.settimeout(10)
        with pytest.raises(ConnectionClosedError):
            raw.recv()
        raw.close()
        assert not marker.exists()
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()
        ack = codec.encode_message(("hello-ack",
                                    {"protocol": PROTOCOL_VERSION}))
        with _fake_shard(_with_codec_version(ack, stale)) as (address, _):
            with pytest.raises(MalformedMessageError,
                               match=f"unsupported codec version {stale}"):
                connect_to_shard(address, timeout=5)

    def test_protocol_2_peers_fail_at_the_hello(self, shard_server):
        """A protocol-2 peer speaks plain pickles: the shard drops its
        hello unread, and a parent refuses a protocol-2 shard's plain-
        pickle refusal unread.  Neither side can read the other."""
        raw = MessageChannel(socket.create_connection(shard_server,
                                                      timeout=5))
        _send_raw(raw, pickle.dumps(
            ("hello", {"protocol": 2, "codec": {"version": 2}})))
        with pytest.raises(ConnectionClosedError):
            raw.recv()
        raw.close()
        connect_to_shard(shard_server, timeout=5).close()
        refusal = pickle.dumps(("error", ProtocolVersionError(
            f"shard speaks protocol 2, client sent {PROTOCOL_VERSION}")))
        with _fake_shard(refusal) as (address, _):
            with pytest.raises(MalformedMessageError,
                               match="not a codec frame"):
                connect_to_shard(address, timeout=5)

    def test_server_survives_bad_hello_then_serves(self, shard_server):
        # A connection that never says hello is dropped ...
        host, port = shard_server
        raw = socket.create_connection((host, port), timeout=5)
        bad = MessageChannel(raw)
        bad.send(("fold", None))  # not a hello
        kind, payload = bad.recv()
        assert kind == "error"
        assert isinstance(payload, ProtocolError)
        bad.close()
        # ... and the server accepts the next, well-behaved client.
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()

    def test_connect_to_unreachable_shard_fails_fast(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            connect_to_shard(("127.0.0.1", free_port), timeout=2)


class TestShardServerLoop:
    def test_unknown_kind_answered_with_error(self, shard_server):
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send(("frobnicate", None))
        kind, payload = channel.recv()
        assert kind == "error"
        assert isinstance(payload, ProtocolError)
        assert "frobnicate" in str(payload)
        # The connection is still usable afterwards.
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()

    def test_garbage_frame_answered_then_connection_usable(
            self, shard_server):
        channel = connect_to_shard(shard_server, timeout=5)
        _send_raw(channel, b"not a pickle at all")
        kind, payload = channel.recv()
        assert kind == "error"
        assert isinstance(payload, MalformedMessageError)
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()

    def test_abrupt_disconnect_then_reconnect(self, shard_server):
        first = connect_to_shard(shard_server, timeout=5)
        first.close()  # no polite bye
        second = connect_to_shard(shard_server, timeout=5)
        second.send(("ping", None))
        assert second.recv()[0] == "pong"
        second.close()

    @pytest.mark.parametrize("kind", ["run", "map"])
    def test_retired_request_kind_is_refused(self, shard_server, kind,
                                             tmp_path):
        """A shard runs no callable a peer sends: the retired ``map``
        (and ``run``) requests get a typed error reply, the shipped
        function never runs, and the shard keeps serving."""
        marker = tmp_path / "ran"
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send((kind, (touch, [(0, str(marker))])))
        kind, payload = channel.recv()
        assert kind == "error"
        assert isinstance(payload, ProtocolError)
        assert "unknown message kind" in str(payload)
        assert not marker.exists()
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()

    def test_unpicklable_reply_reported_and_server_survives(
            self, shard_server):
        """Regression: a successful fold whose *reply* does not pickle
        must degrade to an error reply, not crash the shard or hang the
        waiting parent."""
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send(("fold", _one_job_batch(client_type=_LambdaNamed)))
        kind, payload = channel.recv()
        assert kind == "error"
        assert "pickle" in str(payload)
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()

    @pytest.mark.parametrize("message", [
        ("fold", "not a wire batch"),
        ("vfold", None),  # not a virtual batch either
    ])
    def test_bad_request_payload_reported_and_server_survives(
            self, shard_server, message):
        """Regression: a structurally valid message whose payload blows
        up the handler must not crash a long-running shard server."""
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send(message)
        kind, payload = channel.recv()
        assert kind == "error"
        assert isinstance(payload, BaseException)
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()


class TestListenBacklog:
    def test_racing_connections_queue_instead_of_timing_out(
            self, shard_server):
        """Regression: ``listen(1)`` dropped the SYNs of connections
        racing a busy server (a reconnect overlapping a half-closed
        predecessor, overlapping parents), hanging them until their
        connect timeout.  A real backlog must absorb them."""
        host, port = shard_server
        # Occupy the server: it is inside this connection's serve loop,
        # so everything below lands in the listen backlog.
        busy = connect_to_shard(shard_server, timeout=5)
        racers = []
        try:
            for _ in range(6):
                racers.append(
                    socket.create_connection((host, port), timeout=5))
        finally:
            for racer in racers:
                racer.close()
            busy.close()
        # The server drains the abandoned racers (their handshakes fail
        # fast) and serves a fresh connection.
        channel = connect_to_shard(shard_server, timeout=10)
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()


class TestOversizedFrameHandling:
    def test_oversized_frame_drops_connection_then_server_recovers(self):
        """Regression guard for the post-``FrameTooLargeError`` path:
        the announced payload was never read, so the stream is
        desynchronized and the server must close the connection rather
        than return to ``recv`` — and then accept the next client."""
        with _shard_server(max_frame_bytes=4096) as address:
            channel = connect_to_shard(address, timeout=5)
            _send_raw(channel, b"x" * 8192)  # above the server's limit
            channel.settimeout(10)
            with pytest.raises((ConnectionClosedError,
                                TruncatedFrameError)):
                channel.recv()  # server hangs up instead of replying
            channel.close()
            again = connect_to_shard(address, timeout=5)
            again.send(("ping", None))
            assert again.recv()[0] == "pong"
            again.close()


def _one_job_batch(client_type=None):
    """A fold batch that builds and trains one resident client."""
    from repro.fl.executor import _WireFoldBatch, _WireGroup, _WireJob

    from ..conftest import make_device, make_tiny_dataset, make_tiny_model
    from repro.fl.client import ClientConfig, ClientSpec

    spec = ClientSpec(client_id=0, dataset=make_tiny_dataset(20),
                      device=make_device(), model_factory=make_tiny_model,
                      config=ClientConfig(batch_size=10))
    if client_type is not None:
        spec = spec.replace(client_type=client_type)
    return _WireFoldBatch(
        weights_table=[make_tiny_model().get_weights()],
        groups=[_WireGroup(
            index=0, spec=spec,
            rng_state=spec.initial_rng().bit_generator.state,
            jobs=[_WireJob(weights_ref=0, mask=None, local_epochs=None,
                           base_cycle=0)])],
        factors=[[1.0]], partial=False, structure=None)


def _train_one_resident(address):
    """Connect and leave one resident on the shard; returns the channel."""
    channel = connect_to_shard(address, timeout=5)
    channel.send(("fold", _one_job_batch()))
    kind, (results, _) = channel.recv()
    assert kind == "results"
    assert results[0][1] == "ok"
    return channel


def _residents(address):
    """Connect and ping; returns the resident count the pong reports."""
    channel = connect_to_shard(address, timeout=5)
    channel.send(("ping", None))
    kind, payload = channel.recv()
    channel.close()
    assert kind == "pong"
    return payload["residents"]


class TestResidentsDieWithTheConnection:
    def test_reconnect_after_abrupt_drop_starts_clean(self, shard_server):
        """A parent that drops its connection without a word and
        reconnects finds no residents: it re-ships its specs."""
        first = _train_one_resident(shard_server)
        first.send(("ping", None))
        assert first.recv() == ("pong", {"residents": 1})
        first.close()
        assert _residents(shard_server) == 0


class TestCodecNegotiation:
    """Every frame of a shard connection, both ways, is a codec frame of
    the version the hello agreed on."""

    def test_codec_connection_gets_codec_replies(self, shard_server):
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send(("ping", None))
        blob = channel.recv_bytes()
        assert blob[0] == codec.CODEC_MAGIC
        kind, payload = codec.decode_message(blob)
        assert kind == "pong"
        assert payload == {"residents": 0}
        channel.close()

    def test_codec_framed_fold_round_trips(self, shard_server):
        """A codec-framed fold request trains a resident on a real shard
        server and the reply — one partial aggregate — decodes."""
        channel = connect_to_shard(shard_server, timeout=5)
        channel.send_frame(codec.encode_message(("fold", _one_job_batch())))
        kind, (results, partial) = codec.decode_message(channel.recv_bytes())
        assert kind == "results"
        assert results[0][1] == "ok"
        assert partial.num_updates == 1
        channel.close()

    def test_structurally_bad_codec_frames_do_not_kill_the_server(
            self, shard_server):
        """Regression: a codec frame whose skeleton unpickles but is
        structurally broken (a codec-v1 triple, a non-string kind, a
        run whose payload is not a batch) must degrade to an error
        reply — never an unhandled exception that takes the shard
        down."""
        channel = connect_to_shard(shard_server, timeout=5)
        for broken in (("fold", None, None), (7, None), ("fold", 42)):
            _send_raw(channel, _skeleton_frame(broken))
            kind, payload = channel.recv()
            assert kind == "error"
            assert isinstance(payload, BaseException)
        # The server survives all three and keeps serving.
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()

    def test_retired_segment_flag_answered_with_typed_error(
            self, shard_server):
        """A frame whose array segment carries the retired 0x02 flag
        (an 18-byte shared-memory descriptor in older parents) gets a
        MalformedMessageError reply naming the flag, and the shard
        keeps serving."""
        channel = connect_to_shard(shard_server, timeout=5)
        blob = bytearray(codec.encode_message(
            ("fold", {"w": np.zeros(18, dtype=np.uint8)})).tobytes())
        blob[codec._HEADER.size + codec._SEGMENT_ENTRY.size + 4] = 0x02
        _send_raw(channel, bytes(blob))
        kind, payload = channel.recv()
        assert kind == "error"
        assert isinstance(payload, MalformedMessageError)
        assert "unknown flag 0x02" in str(payload)
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        channel.close()


@contextlib.contextmanager
def _slot_channel(where, shard_server):
    """A handshaken channel to a TCP shard or to a forked local slot."""
    if where == "tcp":
        channel = connect_to_shard(shard_server, timeout=5)
        try:
            yield channel
        finally:
            channel.close()
        return
    backend = make_backend("persistent", max_workers=1)
    try:
        assert backend.check_health() == []
        yield backend._channels[0]
    finally:
        backend.close()


class TestTrustBoundary:
    @pytest.mark.parametrize("where", ["tcp", "forked"])
    def test_plain_pickle_frame_refused_unread(self, where, shard_server,
                                               tmp_path):
        """A payload that is not a codec frame is refused before anything
        is unpickled: a plain pickle whose ``__reduce__`` would create a
        marker file gets a MalformedMessageError reply, the marker never
        appears, and the shard keeps serving.  A codec frame's skeleton
        is still a pickle; closing that (an allow-listed unpickler) is
        ROADMAP item 5, not covered here."""
        marker = tmp_path / "unpickled"
        with _slot_channel(where, shard_server) as channel:
            _send_raw(channel, pickle.dumps(
                ("ping", TouchOnUnpickle(str(marker)))))
            kind, payload = channel.recv()
            assert kind == "error"
            assert isinstance(payload, MalformedMessageError)
            assert "not a codec frame" in str(payload)
            assert not marker.exists()
            channel.send(("ping", None))
            assert channel.recv()[0] == "pong"


@contextlib.contextmanager
def _running_server(server):
    """Drive a directly constructed ShardServer on a thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.address
    finally:
        try:
            channel = connect_to_shard(server.address, timeout=5)
            channel.send(("shutdown", None))
            channel.close()
        except (TransportError, OSError):
            pass
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestTcpNodelay:
    def test_shard_channels_enable_nodelay(self, shard_server):
        """Regression: small control frames (ping/pong, error replies)
        must not eat Nagle + delayed-ACK round trips."""
        channel = connect_to_shard(shard_server, timeout=5)
        sock = channel._socket()
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        channel.close()

    def test_non_tcp_sockets_survive_the_toggle(self):
        left, right = _channel_pair()  # AF_UNIX: no Nagle to disable
        left.send(("ping", None))
        assert right.recv()[0] == "ping"
        left.set_tcp_nodelay(False)  # no-op off TCP, must not raise
        left.set_tcp_nodelay(True)
        left.close()
        right.close()
        left.set_tcp_nodelay(True)  # no-op on a closed channel


class TestOneParent:
    """A shard serves one parent; others are refused while it is live."""

    @pytest.mark.parametrize("token", ["parent-b", None])
    def test_other_parent_refused_busy(self, shard_server, token):
        """A newcomer is refused ``shard busy`` whether or not its hello
        carries the session token a protocol-3 hello had (a protocol-4
        shard reads no such field), and the live connection never
        notices."""
        live = _train_one_resident(shard_server)
        hello = {"protocol": PROTOCOL_VERSION}
        if token is not None:
            hello["session"] = token
        kind, refusal = _hello(shard_server, hello)
        assert kind == "error"
        assert isinstance(refusal, ProtocolError)
        assert "shard busy" in str(refusal)
        live.send(("ping", None))
        assert live.recv() == ("pong", {"residents": 1})
        live.close()

    def test_any_newcomer_refused_busy_while_connected(self, shard_server):
        """No newcomer takes a live connection over — not even a second
        connection from the same parent, which ``connect_to_shard``
        fails with the shard's ``ProtocolError`` — and the live
        connection keeps serving its residents."""
        live = _train_one_resident(shard_server)
        with pytest.raises(ProtocolError, match="shard busy"):
            connect_to_shard(shard_server, timeout=5)
        live.send(("ping", None))
        assert live.recv() == ("pong", {"residents": 1})
        live.close()


class TestLivenessDeadlines:
    def test_stalled_mid_frame_peer_dropped_not_wedged(self):
        """Regression: a parent stalling mid-frame used to wedge the
        whole server forever (unbounded ``recv``).  Now the connection
        is dropped within the read deadline, with its residents, and
        the shard serves the next parent."""
        with _shard_server(read_deadline=1.0) as address:
            stalled = _train_one_resident(address)
            # Claim a 64-byte frame but deliver only 3 bytes.
            stalled._socket().sendall(struct.pack(">I", 64) + b"abc")
            # The stalled connection is dropped within the deadline ...
            stalled.settimeout(10)
            with pytest.raises((ConnectionClosedError,
                                TruncatedFrameError, OSError)):
                stalled.recv()
            stalled.close()
            # ... and the shard admits the next parent, on a clean fleet.
            assert _residents(address) == 0

    def test_idle_between_frames_is_not_dropped(self):
        """The deadline bounds wedged peers, not quiet ones: parents
        legitimately sit idle between cycles."""
        with _shard_server(read_deadline=0.5) as address:
            channel = connect_to_shard(address, timeout=5)
            time.sleep(1.2)  # idle well past the read deadline
            channel.send(("ping", None))
            assert channel.recv()[0] == "pong"
            channel.close()

    def test_silent_connection_dropped_after_handshake_timeout(self):
        with _shard_server(handshake_timeout=0.5) as address:
            raw = socket.create_connection(address, timeout=5)
            raw.settimeout(10)
            assert raw.recv(1) == b""  # the server hung up
            raw.close()
            # The server still serves well-behaved clients.
            channel = connect_to_shard(address, timeout=5)
            channel.send(("ping", None))
            assert channel.recv()[0] == "pong"
            channel.close()


class _FlakyAcceptServer(ShardServer):
    """Fails the first N ``accept()`` calls with a transient OSError."""

    def __init__(self, failures, errno_code, **kwargs):
        super().__init__(**kwargs)
        self.failures_left = failures
        self.errno_code = errno_code

    def _accept(self):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise OSError(self.errno_code, os.strerror(self.errno_code))
        return super()._accept()


class TestAcceptErrors:
    @pytest.mark.parametrize("errno_code",
                             [errno.EMFILE, errno.ECONNABORTED])
    def test_transient_accept_errors_back_off_and_recover(
            self, errno_code, capfd):
        """Regression: a transient ``accept()`` OSError (fd exhaustion,
        a connection aborted in the backlog) silently broke the serve
        loop.  It must back off, say so on stderr, and keep serving."""
        server = _FlakyAcceptServer(2, errno_code)
        with _running_server(server) as address:
            channel = connect_to_shard(address, timeout=10)
            channel.send(("ping", None))
            assert channel.recv()[0] == "pong"
            channel.close()
            assert server.failures_left == 0
        assert "accept() failed" in capfd.readouterr().err

    def test_listener_closure_ends_the_serve_loop(self):
        server = ShardServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        channel = connect_to_shard(server.address, timeout=5)
        channel.send(("ping", None))
        assert channel.recv()[0] == "pong"
        server.close()  # listener closure, not a transient error
        thread.join(timeout=10)
        assert not thread.is_alive()
        channel.close()


class TestServerOnOneConnection:
    """A server around one connected socket — a forked local slot."""

    def test_af_unix_connection_gets_a_peer_label(self):
        """Regression: a socketpair end's getpeername() is '', and
        format_address('') raised IndexError labelling the peer."""
        left, right = socket.socketpair()
        try:
            assert _peer_label(left) == "local"
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("ending", ["hang-up", "shutdown"])
    def test_serves_until_the_connection_ends(self, ending):
        left, right = socket.socketpair()
        server = ShardServer(connection=left)
        assert server.address is None
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        channel = handshake(MessageChannel(right), "local slot", timeout=5)
        channel.send(("ping", None))
        assert channel.recv() == ("pong", {"residents": 0})
        if ending == "shutdown":
            channel.send(("shutdown", None))
        else:
            channel.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        channel.close()


class _LambdaNamed(FLClient):
    """A client whose name — carried on its training summary — does not
    pickle."""

    @property
    def name(self):
        return lambda: None  # lambdas don't pickle
