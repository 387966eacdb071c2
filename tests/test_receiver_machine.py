"""Stateful test of ``ReceiverEndpoint`` under arbitrary delivery orders.

A Hypothesis state machine sends a few small frames and hands the receiver
contiguous runs of their packets in any order, any number of times, with
its timers fired in between. A model of what was sent and delivered checks,
after every step:

* ``on_frame`` fires exactly once for each completed frame, never for a
  dropped one, with the payload that was sent;
* every arriving packet is counted exactly once: stored, duplicate or late;
* every NACK is valid on the wire and fits in one datagram; a gap-timer
  NACK asks only for what lies behind the frame's reception front and was
  not asked for before, and nothing is asked for more than
  ``max_nack_rounds`` times. A segment not yet seen is asked for whole, and
  those requests are counted apart from the requests for its packets.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
import hypothesis.strategies as st

from volstream.clock import NodeClock
from volstream.frames import make_synthetic_frame
from volstream.transport import ReceiverEndpoint, SenderEndpoint
from volstream.wire import (MAX_NACK_DATAGRAM, MAX_NACK_RANGES, decode_packet, encode_packet,
                            parse_header)

PPS = 100
SEGMENT = 500            # 5 packets per segment
ROUNDS = 3
US = 1_000


class ReceiverMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sender = SenderEndpoint(1, 10**9, NodeClock("s", "master"), packet_payload_size=PPS)
        self.receiver = ReceiverEndpoint(1, nack_delay_ns=200 * US, tail_timeout_ns=500 * US,
                                         max_nack_rounds=ROUNDS, deadline_ns=5_000 * US,
                                         on_frame=self._on_frame)
        self.now = 0
        self.frames = {}         # frame_id -> VolumetricFrame
        self.segments = {}       # frame_id -> {segment_index: (datagrams, flags)}
        self.front = {}          # frame_id -> highest (segment, seq) delivered
        self.asked = {}          # (frame_id, segment, seq or 0: whole) -> times requested
        self.upward = {}         # frame_id -> on_frame calls

    def _on_frame(self, frame_id, segments, log):
        self.upward[frame_id] = self.upward.get(frame_id, 0) + 1
        assert b"".join(segments) == b"".join(self.frames[frame_id].segments)

    @precondition(lambda self: len(self.frames) < 3)
    @rule(size=st.integers(1, 2_000))
    def send_frame(self, size):
        frame_id = len(self.frames) + 1
        frame = make_synthetic_frame(frame_id, size, 0, 0, seed=frame_id, segment_size=SEGMENT)
        self.frames[frame_id] = frame
        self.segments[frame_id] = {
            b.segment_index: ([b.datagram(i, b.stamp(i), 1) for i in range(b.count)], b.flags)
            for b in self.sender.send_frame(frame, self.now)}

    @precondition(lambda self: self.frames)
    @rule(data=st.data(), gap=st.integers(0, 300 * US))
    def deliver_run(self, data, gap):
        # a contiguous run of one segment, possibly a duplicate or out of order
        frame_id = data.draw(st.sampled_from(sorted(self.segments)))
        segment = data.draw(st.sampled_from(sorted(self.segments[frame_id])))
        packets, flags = self.segments[frame_id][segment]
        lo = data.draw(st.integers(1, len(packets)))
        hi = data.draw(st.integers(lo, len(packets)))
        run = packets[lo - 1:hi]
        self.now += gap
        ep = self.receiver
        before = ep.packets_received + ep.duplicates + ep.late_packets
        ep.ingest_run(frame_id, segment, len(packets), lo, len(run),
                      b"".join(view for _, view in run), PPS, self.now, self.now,
                      parse_header(b"".join(run[0]))[7], flags)
        assert ep.packets_received + ep.duplicates + ep.late_packets - before == len(run)
        self.front[frame_id] = max(self.front.get(frame_id, (0, 0)), (segment, hi))
        self._check_nacks(ep.pending_control, tail_due=set())
        ep.pending_control.clear()

    @precondition(lambda self: self.receiver.next_timer_ns() is not None)
    @rule()
    def fire_timer(self):
        ep = self.receiver
        self.now = max(self.now, ep.next_timer_ns())
        tail_due = {f for f, s in ep._frames.items()
                    if s.tail_deadline is not None and s.tail_deadline <= self.now}
        self._check_nacks(ep.on_timer(self.now), tail_due)

    def _check_nacks(self, nacks, tail_due):
        for nack in nacks:
            wire = encode_packet(nack)          # validates every range
            assert len(wire) <= MAX_NACK_DATAGRAM and len(nack.ranges) <= MAX_NACK_RANGES
            assert decode_packet(wire).ranges == nack.ranges
            frame_id = nack.frame_id
            for segment, lo, hi in nack.ranges:
                known = self.segments[frame_id].get(segment)
                if known is None:       # the speculative next segment
                    assert frame_id in tail_due and (lo, hi) == (1, 0)
                    continue
                count = len(known[0])
                assert 1 <= lo <= (hi or count) <= count
                # a whole segment is asked for only while the receiver has not
                # seen it; each packet of a seen segment is a range of its own
                seqs = [0] if hi == 0 else range(lo, hi + 1)
                for seq in seqs:
                    key = (frame_id, segment, seq)
                    if frame_id not in tail_due:
                        # gap timer: behind the front, and asked for once
                        assert (segment, seq) < self.front[frame_id]
                        assert key not in self.asked
                    self.asked[key] = self.asked.get(key, 0) + 1
                    assert self.asked[key] <= ROUNDS

    @invariant()
    def each_frame_goes_upward_once(self):
        ep = self.receiver
        for frame_id in self.frames:
            calls = self.upward.get(frame_id, 0)
            assert calls == (1 if frame_id in ep.recv_log else 0)
            assert not (frame_id in ep.recv_log and frame_id in ep.dropped)


ReceiverMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40,
                                             deadline=None)
TestReceiverMachine = ReceiverMachine.TestCase
