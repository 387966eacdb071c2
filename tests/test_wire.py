import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from volstream.errors import CodecError
from volstream.wire import (HEADER_SIZE, ControlPacket, PacketType, data_header,
                            decode_packet, encode_packet, parse_header)

FIELDS = dict(stream_id=3, frame_id=1234, segment_index=7, packet_seq=2,
              packets_in_segment=5, send_timestamp=123_456_789_000, flags=1)


def _datagram(payload=b"hello world", **kw):
    """A data datagram as socket mode sends it: header, then payload."""
    f = {**FIELDS, **kw}
    return data_header(f["stream_id"], f["frame_id"], f["segment_index"], f["packet_seq"],
                       f["packets_in_segment"], len(payload), f["send_timestamp"],
                       f["flags"]) + payload


def _fields(parsed):
    """``parse_header``'s result as ``FIELDS`` names it, with the packet type."""
    ptype, flags, stream_id, frame_id, seg, seq, n, stamp = parsed
    return ptype, dict(stream_id=stream_id, frame_id=frame_id, segment_index=seg,
                       packet_seq=seq, packets_in_segment=n, send_timestamp=stamp,
                       flags=flags)


def test_data_round_trip():
    buf = _datagram()
    assert _fields(parse_header(buf)) == (PacketType.DATA, FIELDS)
    assert buf[HEADER_SIZE:] == b"hello world"


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
    fields = dict(stream_id=stream_id, frame_id=frame_id, segment_index=seg,
                  packet_seq=min(n, 3), packets_in_segment=n, send_timestamp=ts,
                  flags=flags)
    buf = _datagram(payload, **fields)
    assert _fields(parse_header(buf)) == (PacketType.DATA, fields)
    assert buf[HEADER_SIZE:] == payload


def test_data_datagram_is_not_a_control_packet():
    with pytest.raises(CodecError, match="packet_type"):
        decode_packet(_datagram())


def test_short_buffer_errors():
    with pytest.raises(CodecError, match="shorter"):
        parse_header(b"\x00" * 31)
    with pytest.raises(CodecError, match="shorter"):
        decode_packet(b"\x00" * 31)


def test_bad_magic_and_version_and_type():
    buf = _datagram()
    bad_magic = bytes([0xDE, 0xAD]) + buf[2:]
    with pytest.raises(CodecError, match="magic"):
        parse_header(bad_magic)
    bad_version = buf[:2] + b"\xff" + buf[3:]
    with pytest.raises(CodecError, match="version"):
        parse_header(bad_version)
    bad_type = buf[:3] + b"\x7f" + buf[4:]
    with pytest.raises(CodecError, match="packet_type"):
        parse_header(bad_type)


def test_payload_length_mismatch():
    buf = _datagram()
    with pytest.raises(CodecError, match="payload_length"):
        parse_header(buf + b"extra")
    with pytest.raises(CodecError, match="payload_length"):
        parse_header(buf[:-1])


def test_header_mutation_never_misattributes():
    # Flipping any single header byte must either fail to parse or yield
    # header fields that differ from the original's; the payload is untouched.
    buf = _datagram()
    original = parse_header(buf)
    for pos in range(HEADER_SIZE):
        mutated = bytearray(buf)
        mutated[pos] ^= 0xA5
        try:
            out = parse_header(bytes(mutated))
        except CodecError:
            continue
        assert out != original
        assert mutated[HEADER_SIZE:] == b"hello world"


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
    buf = bytearray(_datagram())
    buf[30] = 1
    with pytest.raises(CodecError, match="reserved"):
        parse_header(bytes(buf))
