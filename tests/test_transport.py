import random
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from volstream.appemu import CaptureProfile, RenderProfile, capture_tick, render_complete
from volstream.clock import NodeClock
from volstream.errors import TransportError
from volstream.frames import is_synthetic_frame, make_synthetic_frame
from volstream.pacing import RatePacer
from volstream.transport import ReceiverEndpoint, SenderEndpoint
from volstream.wire import (MAX_NACK_DATAGRAM, MAX_NACK_RANGES, ControlPacket, PacketType,
                            encode_packet)

from conftest import collect_frames, ingest_packet

MS = 1_000_000


def _clock():
    return NodeClock("n", "master")


def _sender(rate=2_000_000_000, overhead=0, **kw):
    return SenderEndpoint(1, rate, _clock(), packet_payload_size=kw.pop("pps", 1400),
                          overhead_bits_per_packet=overhead, **kw)


def _receiver(**kw):
    kw.setdefault("nack_delay_ns", 2 * MS)
    kw.setdefault("tail_timeout_ns", 5 * MS)
    kw.setdefault("max_nack_rounds", 3)
    kw.setdefault("deadline_ns", 0)
    return ReceiverEndpoint(1, **kw)


def _frame(size=3_520_000, frame_id=1, seed=1, segment_size=65_000):
    return make_synthetic_frame(frame_id, size, 0, 0, seed=seed, segment_size=segment_size)


def _packets(burst):
    """(emission_ns, datagram) for each packet of ``burst``, stamped at emission."""
    return [(burst.emissions[i], b"".join(burst.datagram(i, burst.stamp(i), 1)))
            for i in range(burst.count)]


# -- pacing ---------------------------------------------------------------------


def test_pacer_spacing_and_rebase():
    p = RatePacer(1_000_000_000)

    def emit(now_ns, wire_bits):
        base, bits0 = p.charge(now_ns, 1, 0, wire_bits)
        return base + (bits0 * 10**9) // p.rate_bps
    assert emit(0, 8_000) == 0
    assert emit(0, 8_000) == 8_000          # one packet time later
    assert p.busy_until_ns == 16_000
    assert emit(100_000, 8_000) == 100_000  # idle gap rebases
    assert p.busy_until_ns == 108_000


def test_pacer_does_not_rebase_when_charged_at_its_busy_instant():
    # at 3 bps one bit keeps the pacer busy until 333,333,333; a charge at
    # exactly that instant continues the progression, so packet 2 of three
    # one-bit packets starts at 3 bits, 1 s. A rebase would give 999,999,999
    p = RatePacer(3)
    p.charge(0, 1, 1, 1)
    assert p.busy_until_ns == 333_333_333
    base, bits0 = p.charge(333_333_333, 3, 1, 1)
    assert [base + ((bits0 + i) * 10**9) // 3 for i in range(3)] == [
        333_333_333, 666_666_666, 1_000_000_000]


# -- send side -------------------------------------------------------------------


def test_send_span_is_exact_serialization_at_zero_overhead():
    # 3.52 MB at 2 Gbps -> 14.08 ms; at 1.5 Gbps -> 18.773333 ms
    for rate, expect in ((2_000_000_000, 14_080_000), (1_500_000_000, 18_773_333)):
        sender = _sender(rate=rate)
        sender.send_frame(_frame(), 0)
        entry = sender.send_log[1]
        assert entry.first_send_ns == 0
        assert entry.last_send_end_ns - entry.first_send_ns == expect
        assert entry.last_send_end_ns - entry.first_send_ns == (3_520_000 * 8 * 10**9) // rate


def test_single_packet_frame_span_is_its_own_serialization():
    # The send span runs from first emission start to last serialization end,
    # so a one-packet frame spans exactly one packet time.
    sender = _sender(rate=2_000_000_000)
    sender.send_frame(_frame(size=1000), 0)
    entry = sender.send_log[1]
    assert entry.first_send_ns == 0
    assert entry.last_send_end_ns - entry.first_send_ns == (1000 * 8 * 10**9) // 2_000_000_000
    assert entry.first_send_ns <= entry.last_send_end_ns


@settings(max_examples=25, deadline=None)
@given(size=st.integers(1, 500_000), rate=st.sampled_from([10**8, 10**9, 2 * 10**9]),
       overhead=st.integers(0, 500))
def test_pacing_lower_bound(size, rate, overhead):
    sender = SenderEndpoint(1, rate, _clock(), packet_payload_size=1400,
                            overhead_bits_per_packet=overhead)
    sender.send_frame(_frame(size=size, segment_size=20_000), 0)
    span = sender.send_log[1].last_send_end_ns - sender.send_log[1].first_send_ns
    floor = (size * 8 * 10**9) // rate
    assert span >= floor
    if overhead == 0:
        assert span == floor


def test_first_transmission_order_is_lexicographic():
    sender = _sender()
    bursts = sender.send_frame(_frame(size=200_000), 0)
    order = [(b.segment_index, b.seq_start + i) for b in bursts for i in range(b.count)]
    assert order == sorted(order)
    emissions = [e for b in bursts for e in b.emissions]
    assert emissions == sorted(emissions)


def test_oversize_and_sequence_errors():
    sender = _sender()
    sender.send_frame(_frame(frame_id=1), 0)
    with pytest.raises(TransportError, match="increase by 1"):
        sender.send_frame(_frame(frame_id=3), 0)


def test_retransmit_counts_and_staleness():
    sender = _sender(rate=10**9, retention_frames=2)
    for fid in range(1, 5):
        sender.send_frame(_frame(size=100_000, frame_id=fid), (fid - 1) * MS)
    # frames 1 and 2 evicted by the retention window of 2
    nack_old = ControlPacket(packet_type=PacketType.NACK, stream_id=1, frame_id=1,
                             ranges=((1, 1, 1),))
    assert sender.retransmit(nack_old, 10 * MS) == []
    assert sender.stale_nacks == 1
    # single packet
    nack1 = ControlPacket(packet_type=PacketType.NACK, stream_id=1, frame_id=4,
                          ranges=((2, 5, 5),))
    bursts = sender.retransmit(nack1, 10 * MS)
    assert sum(b.count for b in bursts) == 1
    # two ranges totalling 7 packets, all paced
    nack2 = ControlPacket(packet_type=PacketType.NACK, stream_id=1, frame_id=4,
                          ranges=((1, 2, 5), (2, 1, 3)))
    bursts = sender.retransmit(nack2, 10 * MS)
    assert sum(b.count for b in bursts) == 7
    emissions = [e for b in bursts for e in b.emissions]
    assert emissions == sorted(emissions)
    spacing = {b - a for a, b in zip(emissions, emissions[1:])}
    assert spacing == {(1400 * 8 * 10**9) // 10**9}
    assert sender.packets_retransmitted == 8
    assert sender.send_log[4].retransmit_count == 8


def test_whole_segment_nack_uses_sentinel():
    sender = _sender(rate=10**9)
    sender.send_frame(_frame(size=100_000), 0)
    nack = ControlPacket(packet_type=PacketType.NACK, stream_id=1, frame_id=1,
                         ranges=((1, 1, 0),))
    bursts = sender.retransmit(nack, MS)
    assert sum(b.count for b in bursts) == 47   # full 65000-byte segment at 1400


# -- receive side -------------------------------------------------------------------


def _delivered_upward(receiver):
    """Packets stored in the frames the receiver completed."""
    return sum(log.packets_received for log in receiver.recv_log.values())


def _deliver_frame(sender, receiver, frame, t0=0, drop=None, delay=50_000):
    """Push a frame's packets through a direct lossy channel, losing those
    for which ``drop(segment_index, packet_seq)`` holds; returns what
    ``ingest_packet`` returned for each delivered packet."""
    results = []
    for burst in sender.send_frame(frame, t0):
        for i, (emit_ns, pkt) in enumerate(_packets(burst)):
            if drop and drop(burst.segment_index, burst.seq_start + i):
                continue
            results.append(ingest_packet(receiver, pkt, emit_ns + delay))
    return results


def test_in_order_delivery_completes_frame():
    sender, receiver = _sender(), _receiver()
    frames = collect_frames(receiver)
    frame = _frame(size=200_000, seed=9)
    results = _deliver_frame(sender, receiver, frame)
    # only the completing packet returns the frame's receive log
    assert results[:-1] == [None] * (len(results) - 1)
    log = results[-1]
    assert log is receiver.recv_log[1]
    assert frames[1] == b"".join(frame.segments)
    assert log.first_recv_ns < log.last_recv_ns == log.complete_ns
    assert log.packets_received == sender.send_log[1].packet_count
    assert _delivered_upward(receiver) <= sender.packets_sent


def test_duplicate_delivery_is_idempotent():
    sender, receiver = _sender(), _receiver()
    frame = _frame(size=3000)
    bursts = sender.send_frame(frame, 0)
    packets = [pkt for b in bursts for _, pkt in _packets(b)]
    assert ingest_packet(receiver, packets[0], 100) is None
    assert (receiver.packets_received, receiver.duplicates) == (1, 0)    # stored
    assert ingest_packet(receiver, packets[0], 200) is None
    assert (receiver.packets_received, receiver.duplicates) == (1, 1)
    for pkt in packets[1:]:
        log = ingest_packet(receiver, pkt, 300)
    assert log is receiver.recv_log[1]
    assert log.duplicates == 1
    # copies delivered after completion also count as duplicates
    assert ingest_packet(receiver, packets[0], 400) is None
    assert (receiver.packets_received, receiver.duplicates) == (len(packets), 2)
    assert log.duplicates == 2


def test_gap_nack_ranges_examples():
    # the NACK that on_timer emits at the next deadline names the missing
    # (segment_index, seq_start, seq_end) ranges, sorted
    sender, receiver = _sender(pps=1000), _receiver()
    frame = _frame(size=3 * 20_000, segment_size=20_000)   # 3 segments of 20 packets at pps=1000
    bursts = sender.send_frame(frame, 0)
    by_seg = {b.segment_index: _packets(b) for b in bursts}
    # segments 1..2 complete, segment 3 receives seqs 1..10 of 20
    for seg in (1, 2):
        for _, pkt in by_seg[seg]:
            ingest_packet(receiver, pkt, 100)
    for _, pkt in by_seg[3][:10]:
        ingest_packet(receiver, pkt, 200)
    assert [n.ranges for n in receiver.on_timer(receiver.next_timer_ns())] == [((3, 11, 20),)]
    # two holes: {5} and {9..10} in segment 3 after receiving the rest
    receiver2 = _receiver()
    for seg in (1, 2):
        for _, pkt in by_seg[seg]:
            ingest_packet(receiver2, pkt, 100)
    for i, (_, pkt) in enumerate(by_seg[3]):
        if i + 1 in (5, 9, 10):
            continue
        ingest_packet(receiver2, pkt, 200)
    assert ([n.ranges for n in receiver2.on_timer(receiver2.next_timer_ns())]
            == [((3, 5, 5), (3, 9, 10))])
    # nothing missing -> the frame completes and no NACK is ever due
    for i, (_, pkt) in enumerate(by_seg[3]):
        ingest_packet(receiver, pkt, 300)
    assert 1 in receiver.recv_log
    assert receiver.next_timer_ns() is None and receiver.on_timer(10**12) == []


def test_gap_timer_asks_for_the_unreceived_tail_of_a_passed_segment():
    # segment 1 stops at seq 5 of 10 and segment 2 then arrives whole: the
    # tail of segment 1 opened behind the front, so the gap timer (not the
    # later tail timer) asks for it
    sender, receiver = _sender(pps=1000), _receiver()
    frame = _frame(size=3 * 10_000, segment_size=10_000)   # 3 segments of 10 packets
    by_seg = {b.segment_index: _packets(b) for b in sender.send_frame(frame, 0)}
    for _, pkt in by_seg[1][:5]:
        ingest_packet(receiver, pkt, 100)
    for _, pkt in by_seg[2]:
        ingest_packet(receiver, pkt, 200)
    gap_due = 200 + 2 * MS
    assert receiver.next_timer_ns() == gap_due
    assert [n.ranges for n in receiver.on_timer(gap_due)] == [((1, 6, 10),)]


def test_nack_round_trip_recovers_single_loss():
    sender, receiver = _sender(), _receiver()
    frames = collect_frames(receiver)
    frame = _frame(size=100_000, seed=3)
    dropped = []

    def drop_one(seg, seq):
        if not dropped and seg == 2 and seq == 3:
            dropped.append((seg, seq))
            return True
        return False

    _deliver_frame(sender, receiver, frame, drop=drop_one)
    assert receiver.frames_in_flight == 1
    deadline = receiver.next_timer_ns()
    assert deadline is not None
    nacks = receiver.on_timer(deadline)
    assert len(nacks) == 1
    assert nacks[0].ranges == ((2, 3, 3),)
    bursts = sender.retransmit(nacks[0], deadline + 100_000)
    log = None
    for burst in bursts:
        for emit_ns, pkt in _packets(burst):
            log = ingest_packet(receiver, pkt, emit_ns + 50_000)
    assert log is receiver.recv_log[1]
    assert frames[1] == b"".join(frame.segments)
    assert log.nack_count == 1
    assert sender.send_log[1].retransmit_count == 1


def test_rounds_exhausted_drops_frame():
    sender, receiver = _sender(), _receiver(max_nack_rounds=2)
    frame = _frame(size=100_000)
    _deliver_frame(sender, receiver, frame,
                   drop=lambda seg, seq: seg == 1 and seq == 1)
    t = receiver.next_timer_ns()
    rounds = 0
    while receiver.frames_in_flight:
        nacks = receiver.on_timer(t)
        rounds += len(nacks)
        t = receiver.next_timer_ns() or t + 5 * MS
    assert rounds == 2
    assert 1 in receiver.dropped
    # late packet for the dropped frame is counted, not an error
    pkt = _packets(sender.send_frame(_frame(size=1000, frame_id=2), 0)[0])[0][1]
    late = [b for b in sender.retransmit(
        ControlPacket(packet_type=PacketType.NACK, stream_id=1, frame_id=1,
                      ranges=((1, 1, 1),)), t)]
    received, duplicates, late_count = receiver.packets_received, receiver.duplicates, 0
    for burst in late:
        for emit_ns, p in _packets(burst):
            assert ingest_packet(receiver, p, t + 100) is None
            late_count += 1
    assert late_count >= 1 and receiver.late_packets == late_count
    assert (receiver.packets_received, receiver.duplicates) == (received, duplicates)


def test_deadline_drops_slow_frame():
    sender = _sender()
    receiver = _receiver(deadline_ns=10 * MS, max_nack_rounds=0, tail_timeout_ns=0)
    _deliver_frame(sender, receiver, _frame(size=100_000),
                   drop=lambda seg, seq: seq == 2 and seg == 1)
    deadline = receiver.next_timer_ns()
    receiver.on_timer(deadline)
    assert 1 in receiver.dropped
    assert receiver.frames_in_flight == 0


@settings(max_examples=12, deadline=None)
@given(loss=st.sampled_from([0.01, 0.05, 0.2, 0.5]), seed=st.integers(0, 999))
def test_reliability_under_random_loss(loss, seed):
    # every frame is eventually delivered intact while loss < 100% and
    # the deadline is unlimited
    rng = random.Random(seed)
    sender = _sender(rate=10**9)
    receiver = _receiver(max_nack_rounds=10_000)
    frames = collect_frames(receiver)
    frame = _frame(size=60_000, seed=seed)
    _deliver_frame(sender, receiver, frame, drop=lambda seg, seq: rng.random() < loss)
    now = 0
    for _ in range(100_000):
        if not receiver.frames_in_flight:
            break
        deadline = receiver.next_timer_ns()
        now = max(now, deadline)
        for nack in receiver.on_timer(now):
            for burst in sender.retransmit(nack, now):
                for emit_ns, pkt in _packets(burst):
                    if rng.random() < loss:
                        continue
                    ingest_packet(receiver, pkt, emit_ns + 50_000)
    assert frames.get(1) == b"".join(frame.segments)
    sent_total = sender.packets_sent + sender.packets_retransmitted
    assert _delivered_upward(receiver) <= sent_total


def test_lost_tail_segment_is_recovered_by_speculative_nack():
    # every packet of the last segment is lost, so the receiver never sees
    # the final-segment marker and must ask for the next unseen segment
    sender, receiver = _sender(), _receiver()
    frames = collect_frames(receiver)
    frame = _frame(size=100_000, seed=11)   # 2 segments
    _deliver_frame(sender, receiver, frame, drop=lambda seg, seq: seg == 2)
    deadline = receiver.next_timer_ns()
    nacks = receiver.on_timer(deadline)
    assert len(nacks) == 1
    # only the speculative range: nothing of segment 1 is visibly missing
    assert nacks[0].ranges == ((2, 1, 0),)
    log = None
    for burst in sender.retransmit(nacks[0], deadline):
        for emit_ns, pkt in _packets(burst):
            log = ingest_packet(receiver, pkt, emit_ns + 50_000)
    assert log is receiver.recv_log[1]
    assert frames[1] == b"".join(frame.segments)


def test_conservation_counters():
    sender, receiver = _sender(), _receiver()
    _deliver_frame(sender, receiver, _frame(size=100_000))
    assert sender.packets_sent == 72           # ceil(65000/1400)*1 + ceil(35000/1400)
    assert sender.packets_retransmitted == 0
    assert receiver.packets_received == 72
    assert _delivered_upward(receiver) == 72


def _split_runs(bursts, rng, pps):
    """Each burst cut into runs at random points: (segment_index,
    packets_in_segment, seq_start, count, payload, flags)."""
    runs = []
    for b in bursts:
        cuts = sorted(rng.sample(range(1, b.count), rng.randint(0, b.count - 1)))
        for lo, hi in zip([0] + cuts, cuts + [b.count]):
            runs.append((b.segment_index, b.packets_in_segment, b.seq_start + lo, hi - lo,
                         b.payload[lo * pps:hi * pps], b.flags))
    return runs


def _reference_record(deliveries, total_packets):
    """What the frame's receive log must hold after ``deliveries``, each a
    (run, arrival_min, arrival_max, stamp) in ingest order."""
    seen, ref = set(), dict(first=None, stamp=0, last=0, packets=0, duplicates=0, done=None)
    for (seg, _, lo, count, _, _), amin, amax, stamp in deliveries:
        if ref["done"] is not None:
            ref["duplicates"] += count
            continue
        new = {(seg, q) for q in range(lo, lo + count)} - seen
        seen |= new
        ref["packets"] += len(new)
        ref["duplicates"] += count - len(new)
        if not new:
            continue
        if ref["first"] is None or amin < ref["first"]:   # a tie keeps the first
            ref["first"], ref["stamp"] = amin, stamp
        ref["last"] = max(ref["last"], amax)
        if len(seen) == total_packets:
            ref["done"] = amax
    return ref


def _assert_record(log, ref):
    assert (log.first_recv_ns, log.last_recv_ns) == (ref["first"], ref["last"])
    assert log.embedded_first_send_ts == ref["stamp"]
    assert (log.packets_received, log.duplicates) == (ref["packets"], ref["duplicates"])


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 6_000), seed=st.integers(0, 2**32 - 1))
def test_frame_record_matches_its_runs(size, seed):
    # a frame's bursts split into runs at random points, shuffled, some runs
    # delivered twice, each with its own arrival window and stamp: the
    # frame's one receive record is computed from exactly those runs
    rng = random.Random(seed)
    pps = 100
    sender = _sender(pps=pps)
    frame = _frame(size=size, seed=seed % 97, segment_size=1_000)
    runs = _split_runs(sender.send_frame(frame, 0), rng, pps)
    total = sender.packets_sent
    copies = runs + [r for r in runs if rng.random() < 0.3]
    rng.shuffle(copies)
    # coarse arrival instants, so that ties between runs are common
    deliveries = []
    for run in copies:
        amin = rng.randrange(0, 40) * 1000
        deliveries.append((run, amin, amin + rng.randrange(0, 5) * 1000, rng.randrange(10**9)))

    def ingest(receiver, delivered):
        for (seg, n, lo, count, payload, flags), amin, amax, stamp in delivered:
            receiver.ingest_run(1, seg, n, lo, count, payload, pps, amin, amax, stamp, flags)

    receiver = ReceiverEndpoint(1, deadline_ns=0)
    frames = collect_frames(receiver)
    ingest(receiver, deliveries)
    ref = _reference_record(deliveries, total)
    log = receiver.recv_log[1]
    _assert_record(log, ref)
    assert log.complete_ns == ref["done"]
    assert frames == {1: b"".join(frame.segments)}

    # withhold every copy of one run: the frame is dropped at its deadline
    # and its record, NACK rounds included, moves to ``dropped``
    if len(runs) < 2:
        return
    withheld = rng.choice(runs)
    partial = [d for d in deliveries if d[0] is not withheld]
    receiver = ReceiverEndpoint(1, deadline_ns=30 * MS, max_nack_rounds=1_000)
    ingest(receiver, partial)
    nacks = 0
    while receiver.frames_in_flight:
        nacks += len(receiver.on_timer(receiver.next_timer_ns()))
    assert not receiver.recv_log
    log = receiver.dropped[1]
    _assert_record(log, _reference_record(partial, total))
    assert log.nack_count == nacks >= 1


def test_frame_send_allocates_no_payload_copy():
    # with the body cache warm, a synthetic paper frame is 54 views of the
    # cached body and its tail: capture plus send_frame joins only segment
    # 55 (9,976 body bytes and the 24-byte tag), and the capture record
    # reads no payload
    profile = CaptureProfile()
    capture_tick(profile, 1, 0, seed=1)
    sender = _sender()
    tracemalloc.start()
    try:
        frame, record = capture_tick(profile, 1, 0, seed=1)
        bursts = sender.send_frame(frame, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bursts) == 55 and record.frame_id == frame.frame_id == 1
    assert sum(len(segment) for segment in frame.segments) == 3_520_000
    assert peak < 256_000


def test_frame_completion_allocates_no_payload_copy():
    # one 3.52 MB frame, 55 x 65,000 B segments arriving as one run each:
    # segments stay views of the arriving buffers and the payload check
    # compares each in place, so completion, the check and rendering
    # allocate nothing frame- or segment-sized (a copy of one segment
    # would exceed the bound)
    frame = _frame()
    bursts = _sender().send_frame(frame, 0)
    assert [b.count for b in bursts] == [47] * 54 + [8]
    receiver = _receiver()
    rendered = {}
    receiver.on_frame = lambda frame_id, segments, log: rendered.setdefault(
        frame_id, render_complete(RenderProfile(), frame_id, log.complete_ns, is_synthetic_frame(
            segments, frame_id, 3_520_000, 0, 0, 1, 65_000)))
    tracemalloc.start()
    try:
        for b in bursts:
            receiver.ingest_run(1, b.segment_index, b.packets_in_segment, 1, b.count,
                                b.payload, 1400, b.first_ns, b.first_ns, 0, b.flags)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rendered[1].payload_intact
    assert peak < 65_000


def test_each_drop_records_its_reason():
    lost_first = lambda seg, seq: seg == 1 and seq == 1
    by_deadline = _receiver(deadline_ns=10 * MS, max_nack_rounds=0, tail_timeout_ns=0)
    _deliver_frame(_sender(), by_deadline, _frame(size=100_000), drop=lost_first)
    by_deadline.on_timer(by_deadline.next_timer_ns())
    by_rounds = _receiver(max_nack_rounds=1)
    _deliver_frame(_sender(), by_rounds, _frame(size=100_000), drop=lost_first)
    while by_rounds.frames_in_flight:
        by_rounds.on_timer(by_rounds.next_timer_ns())
    unfinished = _receiver()
    _deliver_frame(_sender(), unfinished, _frame(size=100_000), drop=lost_first)
    unfinished.finalize()
    assert [ep.dropped[1].drop_reason for ep in (by_deadline, by_rounds, unfinished)] \
        == ["deadline", "rounds_exhausted", "unfinished"]


def test_nack_with_more_ranges_than_a_datagram_holds_is_split():
    # 299 one-packet gaps behind the front of a 600-packet segment: the
    # gap timer's round is split into NACKs of at most 239 ranges, each one
    # datagram of at most 1,472 bytes, that together ask for every gap
    sender, receiver = _sender(pps=100), _receiver()
    lost = {seq for seq in range(2, 600, 2)}
    _deliver_frame(sender, receiver, _frame(size=60_000),
                   drop=lambda seg, seq: seq in lost)
    nacks = receiver.on_timer(receiver.next_timer_ns())
    assert [len(n.ranges) for n in nacks] == [MAX_NACK_RANGES, len(lost) - MAX_NACK_RANGES]
    assert all(len(encode_packet(n)) <= MAX_NACK_DATAGRAM for n in nacks)
    assert [r for n in nacks for r in n.ranges] == [(1, q, q) for q in sorted(lost)]
    assert receiver._frames[1].log.nack_count == 1     # one round
    # the tail timer's round re-asks them all, still in datagram-sized NACKs
    nacks = receiver.on_timer(receiver.next_timer_ns())
    assert all(len(encode_packet(n)) <= MAX_NACK_DATAGRAM for n in nacks)
    assert [r for n in nacks for r in n.ranges] == [(1, q, q) for q in sorted(lost)]


def test_retransmit_skips_packets_not_yet_emitted():
    # a NACK that reaches the sender while the segment is still in its
    # pacer re-emits only the packets already emitted once, whether it
    # names a range or the whole segment
    sender = _sender(rate=10**9)
    [burst] = sender.send_frame(_frame(size=14_000), 0)     # 10 packets, 11.2 us apart
    now = burst.emissions[3]
    assert [e for e in burst.emissions if e <= now] == burst.emissions[:4]

    def resent(ranges, at=now):
        nack = ControlPacket(packet_type=PacketType.NACK, stream_id=1, frame_id=1,
                             ranges=ranges)
        return [b.seq_start + i for b in sender.retransmit(nack, at) for i in range(b.count)]

    assert resent(((1, 1, 0),)) == [1, 2, 3, 4]
    assert resent(((1, 2, 8),)) == [2, 3, 4]
    assert resent(((1, 5, 9),)) == []
    assert resent(((1, 1, 0),), burst.first_ns - 1) == []
    assert sender.packets_retransmitted == 7


def _ack(frame_id):
    return ControlPacket(packet_type=PacketType.FRAME_ACK, stream_id=1, frame_id=frame_id)


def _nack(frame_id):
    return ControlPacket(packet_type=PacketType.NACK, stream_id=1, frame_id=frame_id,
                         ranges=((1, 1, 1),))


def test_unacknowledged_frame_stays_until_the_window_evicts_it():
    # frame 1's ACK never arrives: ten acknowledged frames leave it
    # retained, and only the third un-acknowledged one after it, with a
    # window of 3, evicts it
    sender = _sender(rate=10**9, retention_frames=3)
    sender.send_frame(_frame(size=14_000, frame_id=1), 0)
    for fid in range(2, 12):
        sender.send_frame(_frame(size=14_000, frame_id=fid), (fid - 1) * MS)
        sender.on_frame_ack(_ack(fid))
    for fid in range(12, 14):
        sender.send_frame(_frame(size=14_000, frame_id=fid), (fid - 1) * MS)
    assert sum(b.count for b in sender.retransmit(_nack(1), 20 * MS)) == 1
    assert len(sender._retained) == 3
    sender.send_frame(_frame(size=14_000, frame_id=14), 13 * MS)
    assert len(sender._retained) == 3
    assert sender.retransmit(_nack(1), 20 * MS) == []
    assert (sender.stale_nacks, sender.frames_acked) == (1, 10)


def test_nack_after_its_frames_ack_is_stale():
    # the ACK overtook the NACK on the reverse link: the receiver holds the
    # frame, so nothing is resent
    sender = _sender(rate=10**9)
    sender.send_frame(_frame(size=14_000, frame_id=1), 0)
    sender.on_frame_ack(_ack(1))
    assert sender.retransmit(_nack(1), 20 * MS) == []
    assert (sender.stale_nacks, sender.packets_retransmitted) == (1, 0)
    assert sender.send_log[1].retransmit_count == 0
    assert len(sender._retained) == 0


def test_retention_window_keeps_the_last_frames():
    # with a window of 8, sending frames 1..10 keeps 3..10: a NACK for
    # frame 3 is answered, and one for frame 2 is stale
    sender = _sender(rate=10**9, retention_frames=8)
    for fid in range(1, 11):
        sender.send_frame(_frame(size=14_000, frame_id=fid), (fid - 1) * MS)
    assert sum(b.count for b in sender.retransmit(_nack(3), 20 * MS)) == 1
    assert sender.stale_nacks == 0
    assert sender.retransmit(_nack(2), 20 * MS) == []
    assert sender.stale_nacks == 1
