import random
import struct

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from volstream.clock import NodeClock
from volstream.errors import CodecError, ConfigError
from volstream.frames import (VolumetricFrame, _synthetic_body, is_synthetic_frame,
                              make_synthetic_frame, required_bandwidth_bps)
from volstream.transport import ReceiverEndpoint, SenderEndpoint
from volstream.wire import data_header, parse_header

from conftest import collect_frames, traced_peak_bytes

# Segment sizes below, at and above the 24 B tag and the 65,536 B block;
# 4,000,000 B holds every frame here in one segment.
SEGMENT_SIZES = [1, 23, 24, 25, 1_000, 65_000, 65_536, 70_000, 4_000_000]


def test_synthetic_frame_reference_section_sizes():
    # 1.4 MB color + 2.1 MB depth + 200 KB audio, decimal units
    frame = make_synthetic_frame(1, 1_400_000, 2_100_000, 200_000, seed=7)
    assert sum(len(seg) for seg in frame.segments) == 3_700_000
    assert len(b"".join(frame.segments)) == 3_700_000


def test_synthetic_frame_section_sum():
    frame = make_synthetic_frame(2, 100, 200, 300, seed=1)
    assert sum(len(seg) for seg in frame.segments) == 600


def test_synthetic_frame_is_pure():
    a = make_synthetic_frame(5, 1000, 2000, 300, seed=42)
    b = make_synthetic_frame(5, 1000, 2000, 300, seed=42)
    assert b"".join(a.segments) == b"".join(b.segments)
    c = make_synthetic_frame(6, 1000, 2000, 300, seed=42)
    assert b"".join(c.segments) != b"".join(a.segments)
    d = make_synthetic_frame(5, 1000, 2000, 300, seed=43)
    assert b"".join(d.segments) != b"".join(a.segments)


def test_segment_counts_for_reference_frame_size():
    segs = make_synthetic_frame(1, 3_520_000, 0, 0, seed=1, segment_size=65_000).segments
    assert len(segs) == 55                       # ceil(3_520_000 / 65_000)
    assert len(segs[-1]) == 10_000
    assert all(len(s) == 65_000 for s in segs[:-1])


def test_segment_exact_fit_and_remainder():
    assert len(make_synthetic_frame(1, 65_000, 0, 0, seed=1, segment_size=65_000).segments) == 1
    segs = make_synthetic_frame(1, 65_001, 0, 0, seed=1, segment_size=65_000).segments
    assert len(segs) == 2 and len(segs[1]) == 1


def test_paper_frame_body_is_segment_aligned_views_of_one_window():
    segs = make_synthetic_frame(1, 3_520_000, 0, 0, seed=1, segment_size=65_000).segments
    assert len(segs) == 55
    window = segs[0].obj
    assert len(window) <= 131_072
    for seg in segs[:-1]:
        assert isinstance(seg, memoryview) and seg.obj is window and len(seg) == 65_000
    # the last segment spans the tag and is the frame's one join
    assert isinstance(segs[-1], bytes) and len(segs[-1]) == 10_000


def test_paper_frame_is_built_in_a_fraction_of_its_size():
    # the block and its 131 KB window are the only body bytes allocated; one
    # frame-sized copy of the body would exceed the bound seven times over
    _synthetic_body.cache_clear()
    peak = traced_peak_bytes(
        lambda: make_synthetic_frame(1, 3_520_000, 0, 0, seed=1, segment_size=65_000))
    assert peak <= 500_000


PAPER = (1, 1_400_000, 1_920_000, 200_000, 1, 65_000)   # frame_id, sections, seed, segment size


@pytest.mark.parametrize("as_type", [bytes, memoryview, bytearray])
def test_check_accepts_a_frames_own_segments_as_any_buffer(as_type):
    segs = make_synthetic_frame(*PAPER).segments
    assert is_synthetic_frame([as_type(seg) for seg in segs], *PAPER)
    assert is_synthetic_frame(segs, *PAPER)


def _flip(seg, at: int) -> bytes:
    buf = bytearray(seg)
    buf[at] ^= 0x01
    return bytes(buf)


@pytest.mark.parametrize("tamper", [
    lambda s: [s[0], _flip(s[1], 40_000), *s[2:]],      # one body byte
    lambda s: [*s[:-1], _flip(s[-1], len(s[-1]) - 1)],  # one tag byte
    lambda s: [s[1], s[0], *s[2:]],                     # two equal-length segments swapped
    lambda s: [*s[:-1], s[-1][:-1]],                    # last segment truncated
    lambda s: s[:-1],                                   # last segment missing
    lambda s: [*s, b""],                                # an extra empty segment
], ids=["body-byte", "tag-byte", "swapped", "truncated", "missing", "extra-empty"])
def test_check_rejects_a_tampered_frame(tamper):
    segs = make_synthetic_frame(*PAPER).segments
    assert not is_synthetic_frame(tamper(list(segs)), *PAPER)


def test_check_rejects_another_frames_segments():
    # the same sizes under another frame id or seed differ only in the tag
    segs = make_synthetic_frame(*PAPER).segments
    assert not is_synthetic_frame(segs, 2, *PAPER[1:])
    assert not is_synthetic_frame(segs, *PAPER[:4], 2, PAPER[5])


def _cut(payload: bytes, size: int) -> list:
    """``payload`` cut into views of ``size`` bytes, the last one shorter."""
    return [memoryview(payload)[i:i + size] for i in range(0, len(payload), size)]


def _bursts(payload: bytes, packet_payload_size: int):
    # the production packetizer: one-segment frames sent by a SenderEndpoint
    sender = SenderEndpoint(1, 10**9, NodeClock("s"), packet_payload_size=packet_payload_size)
    return sender.send_frame(VolumetricFrame(1, _cut(payload, 65_000)), 0)


def test_packetize_counts():
    assert [b.count for b in _bursts(b"a" * 65_000, 1_400)] == [47]   # ceil(65000/1400)
    assert [b.count for b in _bursts(b"a" * 65_000, 452)] == [144]    # ceil(65000/452)
    assert [b.count for b in _bursts(b"x", 1_400)] == [1]


def test_packetize_concatenation_restores_segment():
    payload = bytes(range(256)) * 20
    [burst] = _bursts(payload, 300)
    datagrams = [burst.datagram(i, burst.stamp(i), 1) for i in range(burst.count)]
    assert b"".join(view for _, view in datagrams) == payload
    for i, (header, view) in enumerate(datagrams):
        _, _, _, _, _, seq, n, _ = parse_header(header + view)
        assert (seq, n) == (i + 1, len(datagrams))


# Cap on segments per frame in the geometry below: a 10 MB frame of 1-byte
# segments would be ten million bursts. Every bound stays reachable.
MAX_SEGMENTS = 2_000


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reassembly_identity(data):
    # production path: send_frame bursts split into runs at random points,
    # shuffled, some delivered twice, reassembled by ingest_run
    length = data.draw(st.integers(min_value=1, max_value=10_000_000), label="length")
    seg_size = data.draw(st.integers(min_value=max(1, -(-length // MAX_SEGMENTS)),
                                     max_value=200_000), label="seg_size")
    pkt_size = data.draw(st.integers(min_value=1, max_value=9_000), label="pkt_size")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32), label="seed"))
    payload = rng.randbytes(length)
    frame = VolumetricFrame(1, _cut(payload, seg_size))
    sender = SenderEndpoint(1, 10**9, NodeClock("s"), packet_payload_size=pkt_size)
    receiver = ReceiverEndpoint(1, deadline_ns=0)
    frames = collect_frames(receiver)
    bursts = sender.send_frame(frame, 0)
    assert len(bursts) == -(-length // seg_size)
    runs = []
    for b in bursts:
        cuts = sorted(rng.sample(range(1, b.count), min(rng.randint(0, 3), b.count - 1)))
        runs += [(b, lo, hi) for lo, hi in zip([0, *cuts], [*cuts, b.count])]
    runs += rng.sample(runs, min(len(runs), rng.randint(0, 5)))
    rng.shuffle(runs)
    for t, (b, lo, hi) in enumerate(runs):
        view = memoryview(b.payload)[lo * pkt_size:hi * pkt_size]
        receiver.ingest_run(1, b.segment_index, b.packets_in_segment, b.seq_start + lo,
                            hi - lo, view, pkt_size, t, t, b.stamp(lo), b.flags)
    assert frames[1] == payload
    log = receiver.recv_log[1]
    assert log.packets_received == sum(b.count for b in bursts)


def _tiled_reference(frame_id, color, depth, audio, seed):
    """Reference synthesis: tile the block, truncate, overwrite the tail with the tag."""
    total = color + depth + audio
    block = bytearray(random.Random(f"payload:{seed}").randbytes(65_536))
    tag = struct.pack(">QIIII", seed & 0xFFFFFFFFFFFFFFFF, frame_id,
                      color, depth, audio)[:total]
    buf = block * -(-total // 65_536)
    del buf[total:]
    buf[total - len(tag):] = tag
    return bytes(buf)


@pytest.mark.parametrize("sections,seed", [
    ((10, 5, 3), 1),                     # total < 24: the tag is truncated
    ((65_536 * 2, 0, 0), 7),             # exact multiple of the block
    ((1_400_000, 1_920_000, 200_000), 1),   # paper frame
    ((1_000, 2_000, 300), 2**64 + 5),    # seed wider than the tag field
])
def test_synthetic_frame_matches_tiled_reference(sections, seed):
    total = sum(sections)
    for frame_id in (1, 2):
        expect = _tiled_reference(frame_id, *sections, seed)
        for size in SEGMENT_SIZES:
            if total > size * MAX_SEGMENTS:
                continue
            segs = make_synthetic_frame(frame_id, *sections, seed=seed, segment_size=size).segments
            assert b"".join(segs) == expect, size
            assert all(len(seg) == size for seg in segs[:-1]), size


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       seed=st.one_of(st.sampled_from([0, 1, 2**64 + 5]), st.integers(0, 2**70)),
       frame_id=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_synthetic_frame_matches_only_its_own_bytes(data, seed, frame_id):
    # totals under 24 B truncate the tag and leave the body empty; the
    # frame's own segments match, and so do their copies, but one flipped
    # byte anywhere, body or tag, does not
    size = data.draw(st.sampled_from(SEGMENT_SIZES), label="segment_size")
    most = min(4 * 65_536 + 100, size * MAX_SEGMENTS)
    total = data.draw(st.one_of(
        st.integers(min_value=1, max_value=most),
        st.sampled_from([t for t in (1, 23, 24, 25, 65_536, 2 * 65_536, 4 * 65_536)
                         if t <= most])), label="total")
    color = total // 3
    args = (frame_id, color, total - color, 0, seed, size)
    segs = make_synthetic_frame(*args).segments
    assert is_synthetic_frame(segs, *args)
    assert is_synthetic_frame([bytes(seg) for seg in segs], *args)
    at = data.draw(st.integers(min_value=0, max_value=total - 1), label="byte")
    flipped = [bytearray(seg) for seg in segs]
    flipped[at // size][at % size] ^= data.draw(st.integers(1, 255), label="mask")
    assert not is_synthetic_frame(flipped, *args)


@pytest.mark.parametrize("seg_size", [1, 7, 23, 24, 25, 1_000, 65_000])
@pytest.mark.parametrize("total", [10, 24, 70_000, 65_010])
def test_segments_concatenate_to_payload(seg_size, total):
    # segments below, at and above the 24 B tag: body views, and a tail the
    # tag may span (65,010 B in 65,000 B segments: the tag's last 10 B are
    # segment 2)
    segs = make_synthetic_frame(3, total, 0, 0, seed=5, segment_size=seg_size).segments
    assert len(segs) == -(-total // seg_size)
    assert b"".join(segs) == _tiled_reference(3, total, 0, 0, 5)


def test_segment_and_packet_index_bounds():
    # a frame holds segments 1..count, each nonempty, as entries 0..count-1
    segs = make_synthetic_frame(1, 10_000, 0, 0, seed=1, segment_size=4_000).segments
    assert [len(s) for s in segs] == [4_000, 4_000, 2_000]
    # a data datagram outside those bounds is rejected where it is received
    for seg, seq, n, field in ((1, 0, 2, "packet_seq"), (1, 3, 2, "packet_seq"),
                               (0, 1, 2, "segment_index")):
        with pytest.raises(CodecError, match=field):
            parse_header(data_header(1, 1, seg, seq, n, 1, 0, 0) + b"x")


def test_required_bandwidth_for_reference_stream():
    bw = required_bandwidth_bps(3_520_000, 30)
    assert bw == pytest.approx(844_800_000, rel=1e-9)
    with pytest.raises(ConfigError):
        required_bandwidth_bps(0, 30)
