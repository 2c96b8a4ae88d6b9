"""Unit tests of the wire codec (:mod:`repro.fl.codec`).

The contract: any ``(kind, payload)`` message round-trips bit-exactly
through a codec frame — arrays in any dtype/order, compressed or not,
delta-encoded against a synchronized base or shipped full — and every
way the two delta states can fall out of step is detected, never
silently mis-decoded.
"""

import pickle

import numpy as np
import pytest

from repro.fl import codec
from repro.fl.codec import (CODEC_MAGIC, CodecError, DeltaBaseMismatchError,
                            DeltaDecoderState, DeltaEncoderState,
                            decode_message, encode_message, is_codec_frame,
                            negotiate_compression)


class _Batch:
    """Minimal stand-in for a wire batch (only the codec-visible part)."""

    def __init__(self, weights_table):
        self.weights_table = weights_table


def _roundtrip(message, **kwargs):
    frame = encode_message(message, **kwargs)
    return decode_message(frame.tobytes())


def _assert_tables_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.keys() == want.keys()
        for name in want:
            got_arr, want_arr = np.asarray(got[name]), np.asarray(want[name])
            assert got_arr.dtype == want_arr.dtype
            assert got_arr.shape == want_arr.shape
            np.testing.assert_array_equal(got_arr, want_arr)


def _delta_roundtrip(tables, compression="none"):
    """Ship a sequence of weight tables through a committed delta channel;
    returns the decoded tables."""
    encoder, decoder = DeltaEncoderState(), DeltaDecoderState()
    decoded = []
    for table in tables:
        frame = encode_message(("run", _Batch(table)),
                               compression=compression,
                               delta_state=encoder)
        _, payload = decode_message(frame.tobytes(), delta_state=decoder)
        encoder.commit(frame.pending_base, frame.pending_seq)
        decoded.append(payload.weights_table)
    return decoded


class TestFrameFormat:
    def test_simple_message_round_trips(self):
        assert _roundtrip(("ping", {"x": 1, "y": [2, (3, "z")]})) == \
            ("ping", {"x": 1, "y": [2, (3, "z")]})

    def test_frames_are_magic_tagged(self):
        frame = encode_message(("ping", None))
        blob = frame.tobytes()
        assert blob[0] == CODEC_MAGIC
        assert is_codec_frame(blob)
        assert not is_codec_frame(pickle.dumps(("ping", None)))
        assert not is_codec_frame(b"")

    def test_plain_pickle_fallback(self):
        """decode_message accepts legacy plain-pickled messages."""
        blob = pickle.dumps(("hello", {"protocol": 2}))
        assert decode_message(blob) == ("hello", {"protocol": 2})

    def test_plain_pickle_garbage_raises(self):
        with pytest.raises(CodecError):
            decode_message(b"not a pickle at all")

    def test_non_tuple_plain_pickle_raises(self):
        with pytest.raises(CodecError):
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

    @pytest.mark.parametrize("flag", [0x02, 0x03, 0x04, 0x80])
    def test_unknown_segment_flags_rejected(self, flag):
        """Flag bits the codec does not define — the retired 0x02
        shared-memory descriptor included — are refused by name, never
        decoded as a plain segment."""
        blob = bytearray(
            encode_message(("reply", {"w": np.arange(100.0)})).tobytes())
        # Flag byte of segment 1 (the array): past the header, entry 0
        # and entry 1's 4-byte length.
        blob[codec._HEADER.size + codec._SEGMENT_ENTRY.size + 4] = flag
        with pytest.raises(CodecError,
                           match=f"unknown flag 0x{flag & ~0x01:02x}"):
            decode_message(bytes(blob))

    def test_unknown_compression_rejected_at_encode(self):
        with pytest.raises(ValueError, match="compression"):
            encode_message(("ping", None), compression="lzma")

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

    def test_total_bytes_matches_wire_size(self):
        frame = encode_message(("reply", {"w": np.arange(50.0)}))
        assert frame.total_bytes == len(frame.tobytes())
        assert frame.total_bytes == sum(len(b) for b in frame.buffers())

    def test_describe_breaks_payload_down(self):
        frame = encode_message(("run", {"w": np.arange(1000.0)}))
        text = frame.describe()
        assert "skeleton" in text and "ndarray" in text
        assert str(frame.total_bytes) in text


class TestCompression:
    def test_zlib_round_trips_and_shrinks(self):
        arrays = {"w": np.zeros((100, 100))}  # maximally compressible
        raw = encode_message(("reply", arrays))
        packed = encode_message(("reply", arrays), compression="zlib")
        assert packed.total_bytes < raw.total_bytes / 10
        _, decoded = decode_message(packed.tobytes())
        _assert_tables_equal([decoded], [arrays])

    def test_incompressible_segments_stay_raw(self):
        """A segment zlib cannot shrink is stored raw — the flag can
        never inflate a frame beyond the uncompressed layout."""
        noise = np.frombuffer(np.random.default_rng(0).bytes(4096),
                              dtype=np.uint8).copy()
        raw = encode_message(("reply", noise))
        packed = encode_message(("reply", noise), compression="zlib")
        assert packed.total_bytes <= raw.total_bytes
        _, decoded = decode_message(packed.tobytes())
        np.testing.assert_array_equal(decoded, noise)

    def test_small_messages_skip_compression(self):
        raw = encode_message(("ping", None))
        packed = encode_message(("ping", None), compression="zlib")
        assert packed.total_bytes == raw.total_bytes

    def test_negotiation_downgrades_unknown_algorithms(self):
        assert negotiate_compression("zlib") == "zlib"
        assert negotiate_compression("none") == "none"
        assert negotiate_compression("snappy") == "none"
        assert negotiate_compression(None) == "none"


class TestDeltaShipping:
    def test_first_contact_ships_full(self):
        encoder = DeltaEncoderState()
        table = [{"w": np.arange(100.0)}]
        frame = encode_message(("run", _Batch(table)), delta_state=encoder)
        assert frame.array_bytes >= 800
        assert frame.pending_seq == 1
        # Encoding never mutates the state; commit adopts the base.
        assert encoder.base is None
        encoder.commit(frame.pending_base, frame.pending_seq)
        assert encoder.base is not None and encoder.seq == 1

    def test_identical_resend_ships_skip_markers_only(self):
        table = [{"w": np.random.default_rng(0).normal(size=(50, 50)),
                  "b": np.zeros(10)}]
        clone = [{k: v.copy() for k, v in table[0].items()}]
        decoded = _delta_roundtrip([table, clone])
        _assert_tables_equal(decoded[1], clone)
        # Second frame must be tiny: no array bytes at all.
        encoder, _ = DeltaEncoderState(), None
        first = encode_message(("run", _Batch(table)), delta_state=encoder)
        encoder.commit(first.pending_base, first.pending_seq)
        second = encode_message(("run", _Batch(clone)), delta_state=encoder)
        assert second.array_bytes == 0
        assert second.total_bytes < first.total_bytes / 5

    def test_changed_parameters_xor_under_compression(self):
        rng = np.random.default_rng(1)
        w0 = {"w": rng.normal(size=(40, 40))}
        w1 = {"w": w0["w"] + 1e-6 * rng.normal(size=(40, 40))}
        decoded = _delta_roundtrip([[w0], [w1]], compression="zlib")
        _assert_tables_equal(decoded[1], [w1])

    def test_multi_entry_tables_delta_against_entry_zero(self):
        rng = np.random.default_rng(2)
        shared = {"w": rng.normal(size=(10, 10))}
        stale = {"w": rng.normal(size=(10, 10))}
        decoded = _delta_roundtrip([[shared], [shared, stale]])
        _assert_tables_equal(decoded[1], [shared, stale])

    def test_shape_change_falls_back_to_full(self):
        decoded = _delta_roundtrip([[{"w": np.zeros((4, 4))}],
                                    [{"w": np.zeros((8, 8))}]])
        _assert_tables_equal(decoded[1], [{"w": np.zeros((8, 8))}])

    def test_dtype_change_falls_back_to_full(self):
        decoded = _delta_roundtrip(
            [[{"w": np.zeros(8, dtype=np.float64)}],
             [{"w": np.zeros(8, dtype=np.float32)}]])
        assert decoded[1][0]["w"].dtype == np.float32

    def test_new_and_removed_parameters(self):
        decoded = _delta_roundtrip([[{"a": np.ones(4)}],
                                    [{"b": np.ones(6)}]])
        _assert_tables_equal(decoded[1], [{"b": np.ones(6)}])

    def test_nan_payloads_round_trip_bitwise(self):
        w0 = {"w": np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])}
        w1 = {"w": np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])}
        decoded = _delta_roundtrip([[w0], [w1]], compression="zlib")
        got = decoded[1][0]["w"]
        assert got.tobytes() == w1["w"].tobytes()  # bit-exact, NaNs included
        # Identical NaN payloads are recognized as unchanged (bitwise
        # comparison — NaN != NaN must not defeat the skip path).
        encoder = DeltaEncoderState()
        first = encode_message(("run", _Batch([w0])), delta_state=encoder)
        encoder.commit(first.pending_base, first.pending_seq)
        second = encode_message(("run", _Batch([w1])), delta_state=encoder)
        assert second.array_bytes == 0

    def test_fortran_order_round_trips(self):
        w0 = {"w": np.asfortranarray(
            np.random.default_rng(3).normal(size=(6, 7)))}
        w1 = {"w": np.asfortranarray(w0["w"] + 1.0)}
        decoded = _delta_roundtrip([[w0], [w1]], compression="zlib")
        got = decoded[1][0]["w"]
        np.testing.assert_array_equal(got, w1["w"])

    def test_empty_arrays(self):
        table = [{"w": np.empty((0, 5)), "b": np.ones(2)}]
        decoded = _delta_roundtrip([table, table])
        _assert_tables_equal(decoded[1], table)

    def test_delta_disabled_without_state(self):
        """No delta_state → the table travels inline, full, stateless."""
        table = [{"w": np.arange(10.0)}]
        frame = encode_message(("run", _Batch(table)))
        assert frame.pending_seq is None
        _, payload = decode_message(frame.tobytes())
        _assert_tables_equal(payload.weights_table, table)

    def test_force_full_bypasses_the_base(self):
        table = [{"w": np.arange(10.0)}]
        encoder = DeltaEncoderState()
        first = encode_message(("run", _Batch(table)), delta_state=encoder)
        encoder.commit(first.pending_base, first.pending_seq)
        forced = encode_message(("run", _Batch(table)), delta_state=encoder,
                                force_full=True)
        assert forced.array_bytes >= 80  # the raw array travelled again
        fresh = DeltaDecoderState()
        _, payload = decode_message(forced.tobytes(), delta_state=fresh)
        _assert_tables_equal(payload.weights_table, table)

    def test_committed_base_is_decoupled_from_caller_arrays(self):
        """Mutating the snapshot after commit must not corrupt later
        deltas — the committed base is a private copy."""
        snapshot = {"w": np.arange(10.0)}
        encoder, decoder = DeltaEncoderState(), DeltaDecoderState()
        first = encode_message(("run", _Batch([snapshot])),
                               delta_state=encoder)
        decode_message(first.tobytes(), delta_state=decoder)
        encoder.commit(first.pending_base, first.pending_seq)
        snapshot["w"][:] = -1.0  # caller mutates in place
        follow_up = {"w": np.arange(10.0) + 2.0}
        second = encode_message(("run", _Batch([follow_up])),
                                delta_state=encoder, compression="zlib")
        _, payload = decode_message(second.tobytes(), delta_state=decoder)
        _assert_tables_equal(payload.weights_table, [follow_up])


class TestDeltaBaseMismatch:
    def _committed_channel(self):
        encoder, decoder = DeltaEncoderState(), DeltaDecoderState()
        table = [{"w": np.random.default_rng(5).normal(size=(20, 20))}]
        frame = encode_message(("run", _Batch(table)), delta_state=encoder)
        decode_message(frame.tobytes(), delta_state=decoder)
        encoder.commit(frame.pending_base, frame.pending_seq)
        return encoder, decoder, table

    def test_fresh_decoder_rejects_delta(self):
        encoder, _, table = self._committed_channel()
        delta_frame = encode_message(("run", _Batch(table)),
                                     delta_state=encoder)
        with pytest.raises(DeltaBaseMismatchError):
            decode_message(delta_frame.tobytes(),
                           delta_state=DeltaDecoderState())

    def test_out_of_step_seq_rejected(self):
        encoder, decoder, table = self._committed_channel()
        encoder.seq += 3  # simulate a lost acknowledgement history
        delta_frame = encode_message(("run", _Batch(table)),
                                     delta_state=encoder)
        with pytest.raises(DeltaBaseMismatchError):
            decode_message(delta_frame.tobytes(), delta_state=decoder)

    def test_mismatch_leaves_decoder_state_untouched(self):
        encoder, decoder, table = self._committed_channel()
        seq_before, base_before = decoder.seq, decoder.base
        encoder.seq += 1
        delta_frame = encode_message(("run", _Batch(table)),
                                     delta_state=encoder)
        with pytest.raises(DeltaBaseMismatchError):
            decode_message(delta_frame.tobytes(), delta_state=decoder)
        assert decoder.seq == seq_before
        assert decoder.base is base_before

    def test_reset_forces_full_snapshot(self):
        encoder, decoder, table = self._committed_channel()
        encoder.reset()
        frame = encode_message(("run", _Batch(table)), delta_state=encoder)
        assert frame.array_bytes >= 20 * 20 * 8  # full again
        # A full snapshot is accepted by any decoder state, even a
        # fresh one — this is the reconnect fallback.
        _, payload = decode_message(frame.tobytes(),
                                    delta_state=DeltaDecoderState())
        _assert_tables_equal(payload.weights_table, table)


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
