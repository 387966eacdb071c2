"""Bit-exact wire codec for data and control packets.

A data packet exists only in its wire form: ``data_header`` packs its
header, which is sent followed by a view of the burst's payload
(``SegmentBurst.datagram`` in ``transport``), and ``parse_header`` is the
one decoder of a received data datagram. ``encode_packet`` and
``decode_packet`` handle control packets only.

Every datagram starts with the same fixed 32-byte big-endian header:

    | Offset | Size | Field               |
    |--------|------|---------------------|
    | 0      | 2    | magic (0x564C)      |
    | 2      | 1    | version (0x01)      |
    | 3      | 1    | packet_type         |
    | 4      | 1    | flags               |
    | 5      | 1    | stream_id           |
    | 6      | 4    | frame_id            |
    | 10     | 2    | segment_index       |
    | 12     | 2    | packet_seq          |
    | 14     | 2    | packets_in_segment  |
    | 16     | 2    | payload_length      |
    | 18     | 8    | send_timestamp (ns) |
    | 26     | 6    | reserved (zero)     |

The payload directly follows the header and must be exactly
``payload_length`` bytes. Decoders reject any nonzero reserved bytes so a
mutated header can never silently alias a valid packet.

Control packets reuse the header; their payloads are:

    NACK       u16 range_count, then per range: u16 segment_index,
               u16 seq_start, u16 seq_end (inclusive; seq_end == 0 requests
               the whole segment when the packet count is unknown)
    FRAME_ACK  empty (frame_id in the header)
    SYNC_REQ / SYNC_RESP
               four u64 timestamps t1..t4 (unknown values zero)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import CodecError

MAGIC = 0x564C
VERSION = 0x01
HEADER_SIZE = 32

_HEADER = struct.Struct(">HBBBBIHHHHQ6s")
_NACK_COUNT = struct.Struct(">H")
_NACK_RANGE = struct.Struct(">HHH")
_SYNC_BODY = struct.Struct(">QQQQ")
_RESERVED = bytes(6)

# A NACK fits in one 1,472-byte datagram (a 1,500-byte Ethernet MTU minus the
# IPv4 and UDP headers): at most 239 ranges after the header and range count.
MAX_NACK_DATAGRAM = 1_472
MAX_NACK_RANGES = (MAX_NACK_DATAGRAM - HEADER_SIZE - _NACK_COUNT.size) // _NACK_RANGE.size

# Flag bit carried on data packets.
FLAG_FINAL_SEGMENT = 0x01   # packet belongs to the frame's last segment


class PacketType(IntEnum):
    DATA = 0x01
    NACK = 0x02
    FRAME_ACK = 0x03
    SYNC_REQ = 0x04
    SYNC_RESP = 0x05


_TYPES = frozenset(PacketType)
_DATA = int(PacketType.DATA)


@dataclass(frozen=True, slots=True)
class ControlPacket:
    """NACK / FRAME_ACK / SYNC_REQ / SYNC_RESP message.

    ``ranges`` is only meaningful for NACK: sorted, non-overlapping,
    non-empty (segment_index, seq_start, seq_end) triples. ``t1``..``t4``
    are only meaningful for sync packets.
    """

    packet_type: PacketType
    stream_id: int
    frame_id: int = 0
    ranges: tuple[tuple[int, int, int], ...] = ()
    t1: int = 0
    t2: int = 0
    t3: int = 0
    t4: int = 0
    send_timestamp: int = 0
    flags: int = 0


def _validate_nack_ranges(ranges) -> None:
    if not ranges:
        raise CodecError("ranges: NACK must carry at least one range")
    prev = None
    for seg, lo, hi in ranges:
        if seg < 1:
            raise CodecError(f"ranges: segment_index must be >= 1, got {seg}")
        if lo < 1:
            raise CodecError(f"ranges: seq_start must be >= 1, got {lo}")
        if hi != 0 and hi < lo:
            raise CodecError(f"ranges: seq_end {hi} precedes seq_start {lo}")
        if prev is not None:
            pseg, plo, phi = prev
            if (seg, lo) <= (pseg, plo):
                raise CodecError("ranges: must be sorted by (segment, seq_start)")
            if seg == pseg and (phi == 0 or lo <= phi):
                raise CodecError("ranges: overlapping ranges within a segment")
        prev = (seg, lo, hi)


def data_header(stream_id: int, frame_id: int, segment_index: int, packet_seq: int,
                packets_in_segment: int, payload_length: int, send_timestamp: int,
                flags: int) -> bytes:
    """The 32-byte header of a data datagram, whose payload follows it;
    the one encoder of data packets."""
    return _HEADER.pack(MAGIC, VERSION, _DATA, flags & 0xFF, stream_id & 0xFF, frame_id,
                        segment_index, packet_seq, packets_in_segment, payload_length,
                        send_timestamp, _RESERVED)


def encode_packet(packet: ControlPacket) -> bytes:
    """Serialize a control packet; ``decode_packet`` inverts this exactly."""
    if packet.packet_type == PacketType.NACK:
        _validate_nack_ranges(packet.ranges)
        body = _NACK_COUNT.pack(len(packet.ranges)) + b"".join(
            _NACK_RANGE.pack(seg, lo, hi) for seg, lo, hi in packet.ranges
        )
    elif packet.packet_type in (PacketType.SYNC_REQ, PacketType.SYNC_RESP):
        body = _SYNC_BODY.pack(packet.t1, packet.t2, packet.t3, packet.t4)
    elif packet.packet_type == PacketType.FRAME_ACK:
        body = b""
    else:
        raise CodecError(f"packet_type: cannot encode {packet.packet_type!r}")
    header = _HEADER.pack(
        MAGIC, VERSION, int(packet.packet_type), packet.flags & 0xFF,
        packet.stream_id & 0xFF, packet.frame_id,
        0, 0, 0, len(body), packet.send_timestamp, _RESERVED,
    )
    return header + body


def parse_header(buf) -> tuple:
    """Validate one datagram's header against the datagram.

    Returns ``(packet_type, flags, stream_id, frame_id, segment_index,
    packet_seq, packets_in_segment, send_timestamp)``; raises ``CodecError``
    naming the bad field. Every received datagram's header is checked here.
    """
    if len(buf) < HEADER_SIZE:
        raise CodecError(f"buffer: {len(buf)} bytes is shorter than the {HEADER_SIZE}-byte header")
    (magic, version, ptype, flags, stream_id, frame_id, seg_idx, pkt_seq,
     pkts_in_seg, payload_len, send_ts, reserved) = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise CodecError(f"magic: expected {MAGIC:#06x}, got {magic:#06x}")
    if version != VERSION:
        raise CodecError(f"version: unsupported version {version}")
    if reserved != _RESERVED:
        raise CodecError("reserved: nonzero reserved bytes")
    if len(buf) - HEADER_SIZE != payload_len:
        raise CodecError(
            f"payload_length: header says {payload_len}, buffer carries {len(buf) - HEADER_SIZE}"
        )
    if ptype == PacketType.DATA:
        if seg_idx < 1:
            raise CodecError("segment_index: must be >= 1 for data packets")
        if not 1 <= pkt_seq <= pkts_in_seg:
            raise CodecError(
                f"packet_seq: {pkt_seq} outside 1..{pkts_in_seg}"
            )
    elif ptype not in _TYPES:
        raise CodecError(f"packet_type: unknown type {ptype:#04x}")
    elif seg_idx or pkt_seq or pkts_in_seg:
        raise CodecError("segment_index: must be zero on control packets")
    return ptype, flags, stream_id, frame_id, seg_idx, pkt_seq, pkts_in_seg, send_ts


def decode_packet(buf: bytes | memoryview) -> ControlPacket:
    """Parse one control datagram; raises ``CodecError`` naming the bad
    field, and for a data datagram, which only ``parse_header`` reads."""
    buf = memoryview(buf)
    ptype, flags, stream_id, frame_id, _, _, _, send_ts = parse_header(buf)
    if ptype == PacketType.DATA:
        raise CodecError("packet_type: a data datagram is not a control packet")
    body = buf[HEADER_SIZE:]
    ptype = PacketType(ptype)
    if ptype == PacketType.NACK:
        if len(body) < _NACK_COUNT.size:
            raise CodecError("ranges: NACK body shorter than range count")
        (count,) = _NACK_COUNT.unpack_from(body, 0)
        expect = _NACK_COUNT.size + count * _NACK_RANGE.size
        if len(body) != expect:
            raise CodecError(f"ranges: body is {len(body)} bytes, expected {expect}")
        ranges = tuple(
            _NACK_RANGE.unpack_from(body, _NACK_COUNT.size + i * _NACK_RANGE.size)
            for i in range(count)
        )
        _validate_nack_ranges(ranges)
        return ControlPacket(
            packet_type=ptype, stream_id=stream_id, frame_id=frame_id,
            ranges=ranges, send_timestamp=send_ts, flags=flags,
        )
    if ptype in (PacketType.SYNC_REQ, PacketType.SYNC_RESP):
        if len(body) != _SYNC_BODY.size:
            raise CodecError(f"timestamps: sync body is {len(body)} bytes, expected {_SYNC_BODY.size}")
        t1, t2, t3, t4 = _SYNC_BODY.unpack(body)
        return ControlPacket(
            packet_type=ptype, stream_id=stream_id, frame_id=frame_id,
            t1=t1, t2=t2, t3=t3, t4=t4, send_timestamp=send_ts, flags=flags,
        )
    # FRAME_ACK
    if len(body):
        raise CodecError("payload_length: FRAME_ACK carries no payload")
    return ControlPacket(
        packet_type=ptype, stream_id=stream_id, frame_id=frame_id,
        send_timestamp=send_ts, flags=flags,
    )
