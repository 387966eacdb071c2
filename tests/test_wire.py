import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from volstream.errors import CodecError
from volstream.frames import DataPacket
from volstream.wire import (HEADER_SIZE, ControlPacket, PacketType,
                            decode_packet, encode_packet)


def _packet(**kw):
    fields = dict(stream_id=3, frame_id=1234, segment_index=7, packet_seq=2,
                  packets_in_segment=5, payload=b"hello world",
                  send_timestamp=123_456_789_000, flags=1)
    fields.update(kw)
    return DataPacket(**fields)


def test_data_round_trip():
    p = _packet()
    assert decode_packet(encode_packet(p)) == p


@settings(max_examples=60, deadline=None)
@given(
    stream_id=st.integers(0, 255),
    frame_id=st.integers(0, 2**32 - 1),
    seg=st.integers(1, 2**16 - 1),
    n=st.integers(1, 2**16 - 1),
    ts=st.integers(0, 2**64 - 1),
    flags=st.integers(0, 255),
    payload=st.binary(min_size=0, max_size=200),
)
def test_data_round_trip_property(stream_id, frame_id, seg, n, ts, flags, payload):
    seq = min(n, 3)
    p = DataPacket(stream_id=stream_id, frame_id=frame_id, segment_index=seg,
                   packet_seq=seq, packets_in_segment=n, payload=payload,
                   send_timestamp=ts, flags=flags)
    q = decode_packet(encode_packet(p))
    assert q == p
    assert len(q.payload) == len(payload)


def test_short_buffer_errors():
    with pytest.raises(CodecError, match="shorter"):
        decode_packet(b"\x00" * 31)


def test_bad_magic_and_version_and_type():
    buf = bytearray(encode_packet(_packet()))
    bad_magic = bytes([0xDE, 0xAD]) + bytes(buf[2:])
    with pytest.raises(CodecError, match="magic"):
        decode_packet(bad_magic)
    bad_version = bytes(buf[:2]) + b"\xff" + bytes(buf[3:])
    with pytest.raises(CodecError, match="version"):
        decode_packet(bad_version)
    bad_type = bytes(buf[:3]) + b"\x7f" + bytes(buf[4:])
    with pytest.raises(CodecError, match="packet_type"):
        decode_packet(bad_type)


def test_payload_length_mismatch():
    buf = encode_packet(_packet())
    with pytest.raises(CodecError, match="payload_length"):
        decode_packet(buf + b"extra")
    with pytest.raises(CodecError, match="payload_length"):
        decode_packet(buf[:-1])


def test_header_mutation_never_misattributes():
    # Flipping any single header byte must either fail to decode or yield a
    # packet that differs from the original in its header fields.
    original = _packet()
    buf = bytearray(encode_packet(original))
    for pos in range(HEADER_SIZE):
        mutated = bytearray(buf)
        mutated[pos] ^= 0xA5
        try:
            out = decode_packet(bytes(mutated))
        except CodecError:
            continue
        assert out != original
        assert bytes(out.payload) == bytes(original.payload)


def test_nack_round_trip_and_validation():
    nack = ControlPacket(packet_type=PacketType.NACK, stream_id=1, frame_id=9,
                         ranges=((3, 5, 5), (3, 9, 10), (4, 1, 0)))
    out = decode_packet(encode_packet(nack))
    assert out.ranges == nack.ranges
    assert out.packet_type == PacketType.NACK

    with pytest.raises(CodecError, match="at least one"):
        encode_packet(ControlPacket(packet_type=PacketType.NACK, stream_id=1,
                                    frame_id=9, ranges=()))
    with pytest.raises(CodecError, match="sorted"):
        encode_packet(ControlPacket(packet_type=PacketType.NACK, stream_id=1,
                                    frame_id=9, ranges=((3, 9, 10), (3, 5, 5))))
    with pytest.raises(CodecError, match="overlap"):
        encode_packet(ControlPacket(packet_type=PacketType.NACK, stream_id=1,
                                    frame_id=9, ranges=((3, 5, 8), (3, 7, 9))))


def test_sync_round_trip():
    req = ControlPacket(packet_type=PacketType.SYNC_REQ, stream_id=2, t1=111)
    out = decode_packet(encode_packet(req))
    assert (out.t1, out.t2, out.t3, out.t4) == (111, 0, 0, 0)
    resp = ControlPacket(packet_type=PacketType.SYNC_RESP, stream_id=2,
                         t1=1, t2=2, t3=3, t4=4)
    out = decode_packet(encode_packet(resp))
    assert (out.t1, out.t2, out.t3, out.t4) == (1, 2, 3, 4)


def test_frame_ack_round_trip():
    ack = ControlPacket(packet_type=PacketType.FRAME_ACK, stream_id=1, frame_id=77)
    out = decode_packet(encode_packet(ack))
    assert out.packet_type == PacketType.FRAME_ACK
    assert out.frame_id == 77


def test_control_with_segment_fields_rejected():
    buf = bytearray(encode_packet(ControlPacket(packet_type=PacketType.FRAME_ACK,
                                                stream_id=1, frame_id=1)))
    buf[11] = 1  # segment_index low byte
    with pytest.raises(CodecError, match="segment_index"):
        decode_packet(bytes(buf))


def test_reserved_must_be_zero():
    buf = bytearray(encode_packet(_packet()))
    buf[30] = 1
    with pytest.raises(CodecError, match="reserved"):
        decode_packet(bytes(buf))
