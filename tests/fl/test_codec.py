"""Unit tests of the wire codec (:mod:`repro.fl.codec`).

The contract: any ``(kind, payload)`` message round-trips bit-exactly
through a self-contained codec frame — arrays in any dtype/order travel
out-of-band as they are — and a malformed, foreign-version or
flag-carrying frame is refused with a :class:`CodecError`, never
mis-decoded.
"""

import pickle

import numpy as np
import pytest

from repro.fl import codec
from repro.fl.codec import (CODEC_MAGIC, CodecError, decode_message,
                            encode_message)

from ..conftest import TouchOnUnpickle


class _Batch:
    """Minimal stand-in for a wire batch (only the codec-visible part)."""

    def __init__(self, weights_table):
        self.weights_table = weights_table


def _roundtrip(message):
    return decode_message(encode_message(message).tobytes())


def _assert_tables_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.keys() == want.keys()
        for name in want:
            got_arr, want_arr = np.asarray(got[name]), np.asarray(want[name])
            assert got_arr.dtype == want_arr.dtype
            assert got_arr.shape == want_arr.shape
            np.testing.assert_array_equal(got_arr, want_arr)


class TestFrameFormat:
    def test_simple_message_round_trips(self):
        assert _roundtrip(("ping", {"x": 1, "y": [2, (3, "z")]})) == \
            ("ping", {"x": 1, "y": [2, (3, "z")]})

    def test_frames_are_magic_tagged(self):
        frame = encode_message(("ping", None))
        blob = frame.tobytes()
        assert blob[0] == CODEC_MAGIC

    def test_plain_pickle_refused_unread(self, tmp_path):
        """A payload not opened by the magic byte is refused before
        anything is unpickled: this pickle would create ``marker``."""
        marker = tmp_path / "unpickled"
        blob = pickle.dumps(("hello", TouchOnUnpickle(str(marker))))
        with pytest.raises(CodecError, match=r"starts with b'\\x80'"):
            decode_message(blob)
        assert not marker.exists()

    def test_plain_pickle_garbage_raises(self):
        with pytest.raises(CodecError, match="not a codec frame"):
            decode_message(b"not a pickle at all")
        with pytest.raises(CodecError, match="not a codec frame"):
            decode_message(b"")

    def test_non_tuple_plain_pickle_raises(self):
        with pytest.raises(CodecError, match="not a codec frame"):
            decode_message(pickle.dumps({"kind": "run"}))

    def test_truncated_codec_frame_raises(self):
        blob = encode_message(("ping", None)).tobytes()
        with pytest.raises(CodecError):
            decode_message(blob[:len(blob) - 3])

    def test_trailing_garbage_raises(self):
        blob = encode_message(("ping", None)).tobytes()
        with pytest.raises(CodecError):
            decode_message(blob + b"xx")

    def test_unknown_version_raises(self):
        blob = bytearray(encode_message(("ping", None)).tobytes())
        blob[1] = 99
        with pytest.raises(CodecError, match="version"):
            decode_message(bytes(blob))

    @pytest.mark.parametrize("flag", [0x01, 0x02, 0x03, 0x04, 0x80])
    def test_unknown_segment_flags_rejected(self, flag):
        """Codec v2 defines no segment flag: any set bit — the retired
        v1 flags 0x01 and 0x02 included — is refused by value, never
        decoded as a plain segment."""
        blob = bytearray(
            encode_message(("reply", {"w": np.arange(100.0)})).tobytes())
        # Flag byte of segment 1 (the array): past the header, entry 0
        # and entry 1's 4-byte length.
        blob[codec._HEADER.size + codec._SEGMENT_ENTRY.size + 4] = flag
        with pytest.raises(CodecError, match=f"unknown flag 0x{flag:02x}"):
            decode_message(bytes(blob))

    def test_nonzero_reserved_header_byte_rejected(self):
        """Header byte 2 named a v1 packing algorithm; v2 reserves it."""
        blob = bytearray(encode_message(("ping", None)).tobytes())
        blob[2] = 1
        with pytest.raises(CodecError, match="header byte 2 is 0x01"):
            decode_message(bytes(blob))

    def test_skeleton_must_be_a_kind_payload_pair(self):
        """A v1-shaped (kind, payload, table) skeleton is refused."""
        skeleton = pickle.dumps(("run", None, None), 5)
        blob = (codec._HEADER.pack(CODEC_MAGIC, codec.CODEC_VERSION, 0, 0, 1)
                + codec._SEGMENT_ENTRY.pack(len(skeleton), 0) + skeleton)
        with pytest.raises(CodecError, match=r"\(kind, payload\) tuple"):
            decode_message(blob)

    def test_ndarrays_round_trip_out_of_band(self):
        arrays = {"w": np.arange(64, dtype=np.float64).reshape(8, 8),
                  "b": np.ones(3, dtype=np.float32)}
        frame = encode_message(("reply", arrays))
        # The array payload travels as raw segments, not inside the
        # skeleton pickle.
        assert frame.array_bytes >= 64 * 8 + 3 * 4
        kind, decoded = decode_message(frame.tobytes())
        assert kind == "reply"
        _assert_tables_equal([decoded], [arrays])

    def test_decoded_arrays_are_views_over_writable_buffers(self):
        arrays = {"w": np.arange(100.0)}
        blob = bytearray(encode_message(("reply", arrays)).tobytes())
        _, decoded = decode_message(memoryview(blob))
        decoded["w"][0] = 42.0  # writable view, no copy
        assert decoded["w"].base is not None

    def test_weights_table_travels_inline_and_stateless(self):
        """A weights table is ordinary payload: a frame decodes on its
        own, with no state from earlier frames."""
        table = [{"w": np.arange(10.0)}]
        frame = encode_message(("run", _Batch(table)))
        assert frame.array_bytes >= 80
        _, payload = decode_message(frame.tobytes())
        _assert_tables_equal(payload.weights_table, table)
        _, again = decode_message(frame.tobytes())
        _assert_tables_equal(again.weights_table, table)

    def test_multi_entry_tables_round_trip(self):
        rng = np.random.default_rng(2)
        shared = {"w": rng.normal(size=(10, 10))}
        stale = {"w": rng.normal(size=(10, 10))}
        _, payload = _roundtrip(("run", _Batch([shared, stale])))
        _assert_tables_equal(payload.weights_table, [shared, stale])

    def test_nan_payloads_round_trip_bitwise(self):
        weights = {"w": np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])}
        _, payload = _roundtrip(("run", _Batch([weights])))
        got = payload.weights_table[0]["w"]
        assert got.tobytes() == weights["w"].tobytes()  # NaNs, -0.0 included

    def test_fortran_order_round_trips(self):
        weights = {"w": np.asfortranarray(
            np.random.default_rng(3).normal(size=(6, 7)))}
        _, payload = _roundtrip(("run", _Batch([weights])))
        got = payload.weights_table[0]["w"]
        np.testing.assert_array_equal(got, weights["w"])
        assert got.flags.f_contiguous

    def test_empty_arrays(self):
        table = [{"w": np.empty((0, 5)), "b": np.ones(2)}]
        _, payload = _roundtrip(("run", _Batch(table)))
        _assert_tables_equal(payload.weights_table, table)

    def test_total_bytes_matches_wire_size(self):
        frame = encode_message(("reply", {"w": np.arange(50.0)}))
        assert frame.total_bytes == len(frame.tobytes())
        assert frame.total_bytes == sum(len(b) for b in frame.buffers())

    def test_describe_breaks_payload_down(self):
        frame = encode_message(("run", {"w": np.arange(1000.0)}))
        text = frame.describe()
        assert "skeleton" in text and "ndarray" in text
        assert str(frame.total_bytes) in text


class TestFrameDescribeRegression:
    def test_oversized_run_frame_error_names_kind_and_breakdown(self):
        """Regression (satellite): FrameTooLarge failures must name the
        message kind and the weights-vs-skeleton size breakdown."""
        import socket

        from repro.fl.transport import FrameTooLargeError, MessageChannel

        left, right = socket.socketpair()
        channel = MessageChannel(left, max_frame_bytes=256)
        frame = encode_message(("run", {"w": np.arange(1000.0)}))
        with pytest.raises(FrameTooLargeError) as excinfo:
            channel.send_frame(frame)
        message = str(excinfo.value)
        assert "'run'" in message
        assert "skeleton" in message
        assert "ndarray payload" in message
        assert str(frame.total_bytes) in message
        channel.close()
        right.close()
