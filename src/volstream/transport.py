"""Sender and receiver endpoints of the reliable-datagram protocol.

Each endpoint is a single-owner state machine driven by explicit events
(send request, arrival of a run of packets, timer); nothing here spawns
threads or owns sockets. ``pipeline.Hop`` is the one caller of its event
methods, in the simulation and in socket mode alike, over either mode's
driver.

Sender side: a frame arrives as its segments, cut by the application
layer (``frames``); each segment is packetized and emitted through a rate
pacer. Every segment, of a whole frame or forwarded by the relay, is
planned by ``send_segment``, the one writer of the per-frame send log.
Each segment's packets form one ``SegmentBurst`` that carries the
pacer progression (first emission, bits per packet, rate) rather than
per-packet lists; each packet's send timestamp is its emission instant on
the sender's clock, derived when needed. No packet object is built: the
sim carries whole bursts, and socket mode sends packet ``i`` as
``SegmentBurst.datagram`` gives it, a 32-byte header and a view of the
burst's payload. A frame's bursts are retained from its first send until
its FRAME_ACK, so NACKs can be answered; at most ``retention_frames``
un-acknowledged frames are retained, the oldest evicted first, and a NACK
for an acknowledged or evicted frame counts in ``stale_nacks``.
Retransmissions share the same pacer and get fresh timestamps.

Receiver side: packets are tracked per segment as covered seq intervals
(duplicates are idempotent). A gap behind the reception front is NACKed once,
after a persistence delay; when nothing of a frame arrives for the tail
timeout, every range still missing is NACKed again, and a frame that still
misses a range requested a bounded number of times is dropped. A frame is
handed upward exactly once, when every packet of every segment has arrived.
The sender re-emits only packets it has already emitted once. Payload
bytes are never copied on the way: each run keeps a view of the buffer it
arrived in, a segment that one run covers is that view, and only a segment
split by loss or retransmission is joined. At frame completion
``on_frame`` receives the segment buffers in order, and nothing joins the
frame into one ``bytes``. The payload check is the application's
(``appemu``): no endpoint reads a payload byte. A completed segment holds
its bytes and drops its pieces. A frame in flight holds its receive log
from its first arrival on: every run updates first/last arrival, the
embedded timestamp of the earliest-arriving packet (what the one-way delay
metrics use) and the packet counts in place, and completion or drop moves
that one record into ``recv_log`` or ``dropped``.

Timing conventions: every instant an endpoint logs is recorded once, in
the time of its driver's ``now()``: true time in the sim, the host clock
(the node's own reading) in socket mode. The one local reading taken here
is a packet's send stamp (``SegmentBurst.stamp``), which travels on the
wire; ``metrics.assemble_record`` reads every other instant through the
node's clock. A frame's send span runs from the first packet's emission
start to the last packet's pacer serialization end, so at zero configured
per-packet overhead it equals payload_bits / pacing_rate exactly. Receive
spans run between arrival instants, and include retransmitted arrivals;
retransmissions never extend the recorded send span (they are counted
separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clock import NodeClock
from .errors import TransportError
from .frames import VolumetricFrame
from .wire import (FLAG_FINAL_SEGMENT, HEADER_SIZE, MAX_NACK_RANGES, ControlPacket, PacketType,
                   data_header)
from .pacing import NS_PER_S, RatePacer

# Why ``ReceiverEndpoint._drop`` gave a frame up: its deadline passed, a
# missing range used up its NACK rounds, or the run ended with it in flight.
DROP_REASONS = ("deadline", "rounds_exhausted", "unfinished")


@dataclass(slots=True)
class SegmentBurst:
    """A paced emission of contiguous packets of one segment.

    The burst is carried as its pacer progression: packet ``i`` (0-based)
    starts serializing at ``base_ns + ((bits0 + i * step_bits) * 10**9) //
    rate_bps`` (``first_ns`` for packet 0), and every packet but the last is
    ``full_wire`` bytes on the wire. ``clock`` maps those driver-time
    instants to the sender-local send stamps. The per-packet lists
    ``emissions``, ``stamps`` and ``wire_bytes`` are built on first use, for
    socket mode and the per-packet link path, and ``datagram(i, ...)`` is
    the one packetizer: packet ``i`` as its header and a view of its payload.
    """

    frame_id: int
    segment_index: int
    packets_in_segment: int
    seq_start: int
    count: int
    payload: object            # buffer covering seqs [seq_start, seq_start+count-1]
    packet_payload_size: int
    first_ns: int
    base_ns: int
    bits0: int
    step_bits: int             # pacer bits charged per full packet
    rate_bps: int
    full_wire: int             # datagram size incl header, all but the last packet
    last_wire: int
    clock: NodeClock
    flags: int
    _emissions: list | None = field(default=None, repr=False, compare=False)

    def stamp(self, i: int) -> int:
        """Sender-local send timestamp of packet ``i``."""
        return self.clock.local_from_true(
            self.base_ns + ((self.bits0 + i * self.step_bits) * NS_PER_S) // self.rate_bps)

    def emitted_by(self, now_ns: int) -> int:
        """How many of the burst's packets start emission at or before
        ``now_ns``: packet ``i`` does iff ``(bits0 + i * step_bits) * 10**9
        < (now_ns - base_ns + 1) * rate_bps``."""
        room = (now_ns - self.base_ns + 1) * self.rate_bps - self.bits0 * NS_PER_S
        if room <= 0:
            return 0
        return min(self.count, -(-room // (self.step_bits * NS_PER_S)))

    @property
    def emissions(self) -> list:
        if self._emissions is None:
            base, rate = self.base_ns, self.rate_bps
            bits = self.bits0 * NS_PER_S
            step = self.step_bits * NS_PER_S
            self._emissions = [base + (bits + i * step) // rate for i in range(self.count)]
        return self._emissions

    @property
    def stamps(self) -> list:
        return [self.clock.local_from_true(e) for e in self.emissions]

    @property
    def wire_bytes(self) -> list:
        return [self.full_wire] * (self.count - 1) + [self.last_wire]

    def datagram(self, i: int, stamp: int, stream_id: int) -> tuple:
        """Packet ``i`` of the burst as a data datagram stamped ``stamp``:
        ``(header, payload view)``, whose concatenation is its wire bytes.
        The view shares the burst's payload buffer; nothing is copied."""
        pps = self.packet_payload_size
        body = self.payload[i * pps:(i + 1) * pps]
        return data_header(stream_id, self.frame_id, self.segment_index, self.seq_start + i,
                           self.packets_in_segment, len(body), stamp, self.flags), body


@dataclass(slots=True)
class SendLogEntry:
    frame_id: int
    first_send_ns: int = 0            # first packet emission start
    last_send_end_ns: int = 0         # last packet pacer-serialization end
    packet_count: int = 0
    retransmit_count: int = 0


@dataclass(slots=True)
class RecvLogEntry:
    frame_id: int
    first_recv_ns: int = 0
    last_recv_ns: int = 0
    embedded_first_send_ts: int = 0   # sender-local stamp of earliest arrival
    complete_ns: int = 0
    packets_received: int = 0
    duplicates: int = 0
    nack_count: int = 0
    drop_reason: str = ""             # one of DROP_REASONS once dropped


class SenderEndpoint:
    """Paced, retention-backed sending side of one stream hop.

    A frame's bursts are retained from its first send until its FRAME_ACK
    arrives. At most ``retention_frames`` un-acknowledged frames are
    retained: a frame whose ACK was lost, or that the receiver dropped,
    leaves once that many newer un-acknowledged frames are sent. A NACK for
    an acknowledged or evicted frame counts in ``stale_nacks``.

    The sizes, overhead, retention and pacing rate are taken as given:
    ``config.validate`` range-checks them, and ``segment_payload_size`` and
    ``packet_payload_size`` there also bound a frame's segment and packet
    counts to the u16 header fields.
    """

    def __init__(
        self,
        stream_id: int,
        pacing_rate_bps: int,
        clock: NodeClock,
        packet_payload_size: int = 1_400,
        overhead_bits_per_packet: int = 0,
        retention_frames: int = 8,
    ):
        self.stream_id = stream_id
        self.clock = clock
        self.pacer = RatePacer(pacing_rate_bps)
        self.packet_payload_size = packet_payload_size
        self.overhead_bits = overhead_bits_per_packet
        self.retention_frames = retention_frames
        self.send_log: dict[int, SendLogEntry] = {}
        self.packets_sent = 0
        self.packets_retransmitted = 0
        self.stale_nacks = 0
        self.frames_acked = 0
        self._retained: dict[int, dict] = {}   # frame_id -> {seg_idx: first, whole-segment burst}
        self._last_frame_id: int | None = None

    def _plan_burst(self, now, frame_id, seg_idx, n_in_seg, seq_start, count,
                    payload, flags):
        pps = self.packet_payload_size
        overhead = self.overhead_bits
        last_plen = len(payload) - (seq_start - 2 + count) * pps
        if last_plen > pps:
            last_plen = pps
        step_bits = pps * 8 + overhead
        base, bits0 = self.pacer.charge(now, count, step_bits,
                                        last_plen * 8 + overhead)
        rate = self.pacer.rate_bps
        view = memoryview(payload)[(seq_start - 1) * pps:(seq_start - 1 + count) * pps]
        # Positional: this runs once per burst, and keywords cost measurably.
        return SegmentBurst(
            frame_id, seg_idx, n_in_seg, seq_start, count, view, pps,
            base + (bits0 * NS_PER_S) // rate, base, bits0, step_bits, rate,
            HEADER_SIZE + pps, HEADER_SIZE + last_plen, self.clock, flags,
        )

    def send_frame(self, frame: VolumetricFrame, now_ns: int) -> list[SegmentBurst]:
        """Plan the paced emission of every packet of ``frame``, in order.

        Returns one burst per segment of the frame, each planned by
        ``send_segment`` over that segment's buffer as it is, so
        packets are emitted in (segment_index, packet_seq) order and the send
        log records the span from the first emission start to the last
        pacer-serialization end. This method adds only the frame-id check.
        """
        if self._last_frame_id is not None and frame.frame_id != self._last_frame_id + 1:
            raise TransportError(
                f"frame_id must increase by 1: got {frame.frame_id} after {self._last_frame_id}"
            )
        self._last_frame_id = frame.frame_id

        last = len(frame.segments)
        return [self.send_segment(frame.frame_id, k, payload, now_ns, is_final=k == last)
                for k, payload in enumerate(frame.segments, 1)]

    def send_segment(self, frame_id: int, segment_index: int, payload,
                     now_ns: int, is_final: bool = False) -> SegmentBurst:
        """Plan the paced emission of one segment.

        The one place the send log is built, the segment retained and its
        packets counted. On the relay's forwarding path segments of
        different frames may interleave; the per-frame send log aggregates
        the earliest emission and the latest serialization end across its
        segments.
        """
        n = -(-len(payload) // self.packet_payload_size)
        burst = self._plan_burst(now_ns, frame_id, segment_index, n, 1, n, payload,
                                 FLAG_FINAL_SEGMENT if is_final else 0)
        self.packets_sent += n
        end = self.pacer.busy_until_ns
        first = burst.first_ns
        entry = self.send_log.get(frame_id)
        if entry is None:
            entry = SendLogEntry(frame_id, first)
            self.send_log[frame_id] = entry
            self._retained[frame_id] = {}
            self._evict()
        elif first < entry.first_send_ns:
            entry.first_send_ns = first
        if end > entry.last_send_end_ns:
            entry.last_send_end_ns = end
        entry.packet_count += n
        if frame_id in self._retained:
            self._retained[frame_id][segment_index] = burst
        return burst

    def _evict(self) -> None:
        while len(self._retained) > self.retention_frames:
            self._retained.pop(next(iter(self._retained)))

    def retransmit(self, nack: ControlPacket, now_ns: int) -> list[SegmentBurst]:
        """Re-emit the packets a NACK asks for, paced under the same limiter.

        Each range is trimmed to the packets whose first emission is planned
        at or before ``now_ns``: a packet still queued in the pacer is not
        lost, only late. NACKs for frames no longer retained (acknowledged,
        or evicted by the window) count as stale and emit nothing.
        Re-emitted packets carry fresh timestamps.
        """
        if nack.packet_type != PacketType.NACK:
            raise TransportError(f"expected NACK, got {nack.packet_type!r}")
        retained = self._retained.get(nack.frame_id)
        if retained is None:
            self.stale_nacks += 1
            return []
        bursts = []
        for seg_idx, lo, hi in nack.ranges:
            if seg_idx not in retained:
                continue
            first = retained[seg_idx]
            n = first.count
            emitted = first.emitted_by(now_ns)
            if hi == 0 or hi > emitted:
                hi = emitted
            if lo > hi:
                continue
            count = hi - lo + 1
            burst = self._plan_burst(now_ns, nack.frame_id, seg_idx, n,
                                     lo, count, first.payload, first.flags)
            bursts.append(burst)
            self.packets_retransmitted += count
        if nack.frame_id in self.send_log:
            self.send_log[nack.frame_id].retransmit_count += sum(b.count for b in bursts)
        return bursts

    def on_frame_ack(self, ack: ControlPacket) -> None:
        """The receiver holds the whole frame: release its bursts."""
        self.frames_acked += 1
        self._retained.pop(ack.frame_id, None)

    def counters(self) -> dict:
        """Packet and frame counters, as the run's reports read them."""
        return {"packets_sent": self.packets_sent,
                "packets_retransmitted": self.packets_retransmitted,
                "stale_nacks": self.stale_nacks, "frames_acked": self.frames_acked}


class _SegmentState:
    __slots__ = ("expected", "covered", "pieces", "data", "asked")

    def __init__(self, expected: int):
        self.expected = expected
        self.covered: list[list[int]] = []     # merged [lo, hi] pairs
        self.pieces: list[tuple] = []          # (lo, hi, buffer view), until complete
        self.data = None                       # the assembled bytes, once complete
        self.asked: list[list[int]] = []       # [lo, hi, times requested] per NACKed range

    def asked_entry(self, seq: int) -> list[int] | None:
        """The NACKed range that holds ``seq``, if any. A gap lies wholly
        inside one NACKed range or outside all of them: arrivals only
        shrink the gaps that were asked for."""
        for entry in self.asked:
            if entry[0] <= seq <= entry[1]:
                return entry
        return None

    def missing(self) -> list[tuple[int, int]]:
        gaps = []
        nxt = 1
        for lo, hi in self.covered:
            if lo > nxt:
                gaps.append((nxt, lo - 1))
            nxt = hi + 1
        if nxt <= self.expected:
            gaps.append((nxt, self.expected))
        return gaps

    @property
    def is_complete(self) -> bool:
        return len(self.covered) == 1 and self.covered[0][0] == 1 and self.covered[0][1] == self.expected

    def add(self, lo: int, hi: int, view, pps: int) -> tuple[int, int]:
        """Insert run [lo, hi]; returns (stored, duplicate) packet counts.

        ``covered[i:j]`` are the stored runs that overlap or touch [lo, hi]:
        the parts of [lo, hi] between them are stored as pieces, and they
        all merge into one run. Runs mostly arrive in order, so the scan
        starts at the highest stored run.
        """
        covered, pieces = self.covered, self.pieces
        j = len(covered)
        while j and covered[j - 1][0] > hi + 1:
            j -= 1
        i = j
        while i and covered[i - 1][1] + 1 >= lo:
            i -= 1
        stored = 0
        cursor = lo
        for k in range(i, j):
            clo, chi = covered[k]
            if clo > cursor:
                pieces.append((cursor, clo - 1, view[(cursor - lo) * pps:(clo - lo) * pps]))
                stored += clo - cursor
            if chi >= cursor:
                cursor = chi + 1
        if cursor <= hi:
            pieces.append((cursor, hi, view if cursor == lo else view[(cursor - lo) * pps:]))
            stored += hi - cursor + 1
        if i < j:
            run = covered[i]
            if lo < run[0]:
                run[0] = lo
            run[1] = max(hi, covered[j - 1][1])
            del covered[i + 1:j]
        else:
            covered.insert(i, [lo, hi])
        return stored, hi - lo + 1 - stored

    def assemble(self):
        """The segment's bytes: the one stored view, or the pieces joined."""
        if len(self.pieces) == 1:
            return self.pieces[0][2]
        self.pieces.sort(key=lambda p: p[0])
        return b"".join(p[2] for p in self.pieces)


class _FrameState:
    """A frame in flight: its receive log, its segments, its timers and the
    gaps its NACKs asked for.

    The reception front is the highest (segment, seq) that has arrived.
    ``new_gaps`` holds the ranges that opened behind it since the gap timer
    last fired: whole segments skipped, seqs skipped within a segment, and
    the unreceived tail of a segment once a later segment arrives. The
    in-flight tail of the frontmost segment is not a gap. ``unseen_asked``
    counts the requests for each segment not yet seen, asked for whole; once
    a segment is seen its gaps are ranges of their own, counted in
    ``_SegmentState.asked``: a relay may forward a segment after later ones,
    and a request made before it forwarded the segment must not spend the
    budget of the gaps found in it.
    """

    __slots__ = ("log", "segments", "segment_count", "gap_deadline", "tail_deadline",
                 "drop_deadline", "max_seen_seg", "incomplete", "new_gaps", "unseen_asked")

    def __init__(self, log: RecvLogEntry, drop_deadline: int | None):
        self.log = log
        self.segments: dict[int, _SegmentState] = {}
        self.segment_count: int | None = None
        self.gap_deadline: int | None = None
        self.tail_deadline: int | None = None
        self.drop_deadline = drop_deadline
        self.max_seen_seg = 0
        self.incomplete: set[int] = set()
        self.new_gaps: list[tuple[int, int, int]] = []   # (segment, lo, hi); hi 0: whole
        self.unseen_asked: dict[int, int] = {}

    def note_gaps(self, idx: int, lo: int, top: int) -> None:
        """Record the gaps that a run of segment ``idx`` starting at seq
        ``lo`` opened behind the front; ``top`` is the highest seq of that
        segment before the run (0: none)."""
        front = self.max_seen_seg
        if idx > front:
            gaps = self.new_gaps
            if front:
                prev = self.segments[front]
                last = prev.covered[-1][1]
                if last < prev.expected:
                    gaps.append((front, last + 1, prev.expected))
            gaps.extend((k, 1, 0) for k in range(front + 1, idx))
            if lo > 1:
                gaps.append((idx, 1, lo - 1))
            self.max_seen_seg = idx
        elif lo > top + 1:
            self.new_gaps.append((idx, top + 1, lo - 1))

    def timer_ns(self) -> int | None:
        """The frame's earliest gap, tail or drop deadline."""
        first = self.drop_deadline
        d = self.tail_deadline
        if d is not None and (first is None or d < first):
            first = d
        d = self.gap_deadline
        if d is not None and (first is None or d < first):
            first = d
        return first


class ReceiverEndpoint:
    """Reassembling, NACK-emitting receiving side of one stream hop."""

    def __init__(
        self,
        stream_id: int,
        nack_delay_ns: int = 2_000_000,
        tail_timeout_ns: int = 5_000_000,
        max_nack_rounds: int = 3,
        deadline_ns: int = 66_600_000,   # 0 disables the deadline
        on_segment=None,   # (frame_id, segment_index, data, now, is_final): a segment is whole
        on_frame=None,     # (frame_id, segments, log): the frame is whole
        on_drop=None,      # (frame_id): the frame is dropped
    ):
        self.stream_id = stream_id
        self.nack_delay_ns = nack_delay_ns
        self.tail_timeout_ns = tail_timeout_ns
        self.max_nack_rounds = max_nack_rounds
        self.deadline_ns = deadline_ns
        self.on_segment = on_segment
        self.on_frame = on_frame
        self.on_drop = on_drop
        self.recv_log: dict[int, RecvLogEntry] = {}
        self.dropped: dict[int, RecvLogEntry] = {}
        self.packets_received = 0
        self.duplicates = 0
        self.late_packets = 0
        self.pending_control: list[ControlPacket] = []
        self._frames: dict[int, _FrameState] = {}

    # -- ingestion -----------------------------------------------------------

    def ingest_run(self, frame_id, segment_index, packets_in_segment, seq_start,
                   count, payload, packet_payload_size, first_arrival,
                   last_arrival, stamp_at_first, flags) -> RecvLogEntry | None:
        """Take in a contiguous run of packets of one segment.

        Duplicates are idempotent. Returns the frame's receive log if this
        run completed it, else ``None``; NACKs the run triggered wait in
        ``pending_control``.

        ``payload`` holds the run's packets back to back. Views of it are
        kept after the call returns (a segment that this run covers is
        handed to ``on_segment`` and ``on_frame`` as such a view), so it must
        be immutable: a receive path that reuses its buffer must copy first.
        """
        state = self._frames.get(frame_id)
        if state is None:
            if frame_id in self.dropped:
                self.late_packets += count
                return None
            done = self.recv_log.get(frame_id)
            if done is not None:
                self.duplicates += count
                done.duplicates += count
                return None
            log = RecvLogEntry(frame_id, first_arrival, last_arrival, stamp_at_first)
            state = _FrameState(log, first_arrival + self.deadline_ns
                                if self.deadline_ns else None)
            self._frames[frame_id] = state
        else:
            log = state.log

        if flags & FLAG_FINAL_SEGMENT:
            state.segment_count = segment_index

        seg = state.segments.get(segment_index)
        if seg is None:
            seg = _SegmentState(packets_in_segment)
            state.segments[segment_index] = seg
            state.incomplete.add(segment_index)
            top = 0
        else:
            top = seg.covered[-1][1]
        stored, dup = seg.add(seq_start, seq_start + count - 1, payload,
                              packet_payload_size)
        self.packets_received += stored
        self.duplicates += dup
        log.packets_received += stored
        log.duplicates += dup

        if stored == 0:
            return None

        # a tie keeps the first arrival already recorded
        if first_arrival < log.first_recv_ns:
            log.first_recv_ns = first_arrival
            log.embedded_first_send_ts = stamp_at_first
        if last_arrival > log.last_recv_ns:
            log.last_recv_ns = last_arrival

        now = last_arrival
        # the run stored packets, so the segment was incomplete before it
        if seg.is_complete:
            data = seg.data = seg.assemble()
            seg.pieces.clear()
            state.incomplete.discard(segment_index)
            if self.on_segment is not None:
                self.on_segment(frame_id, segment_index, data, now,
                                state.segment_count == segment_index)
            if not state.incomplete and len(state.segments) == state.segment_count:
                return self._complete(state, now)

        # The tail timer follows the latest arrival; a new gap behind the
        # front arms the gap timer, unless it is already armed.
        if self.max_nack_rounds:
            state.tail_deadline = now + self.tail_timeout_ns
            state.note_gaps(segment_index, seq_start, top)
            if state.new_gaps:
                if self.nack_delay_ns == 0:
                    self.pending_control += self._ask_new_gaps(state)
                elif state.gap_deadline is None:
                    state.gap_deadline = now + self.nack_delay_ns
        return None

    def _complete(self, state: _FrameState, now: int) -> RecvLogEntry:
        log = state.log
        log.complete_ns = now
        self.recv_log[log.frame_id] = log
        if self.on_frame is not None:
            self.on_frame(log.frame_id, [state.segments[i].data
                                         for i in range(1, state.segment_count + 1)], log)
        del self._frames[log.frame_id]
        return log

    # -- gap detection and timers ---------------------------------------------

    def _nacks(self, state: _FrameState, ranges: list) -> list[ControlPacket]:
        """One NACK round for ``ranges``, split so that each NACK fits in one
        datagram."""
        if not ranges:
            return []
        state.log.nack_count += 1
        return [ControlPacket(packet_type=PacketType.NACK, stream_id=self.stream_id,
                              frame_id=state.log.frame_id,
                              ranges=tuple(ranges[i:i + MAX_NACK_RANGES]))
                for i in range(0, len(ranges), MAX_NACK_RANGES)]

    def _ask_new_gaps(self, state: _FrameState) -> list[ControlPacket]:
        """The gap timer's NACKs: each new gap behind the front, less what
        has arrived or was already requested since it opened."""
        ranges = []
        segments, unseen = state.segments, state.unseen_asked
        for idx, lo, hi in state.new_gaps:
            seg = segments.get(idx)
            if seg is None:
                if idx not in unseen:
                    unseen[idx] = 1
                    ranges.append((idx, 1, 0))
                continue
            if seg.data is not None:
                continue
            hi = hi or seg.expected
            for a, b in seg.missing():
                if b < lo:
                    continue
                if a > hi:
                    break
                a, b = max(a, lo), min(b, hi)
                if seg.asked_entry(a) is None:
                    seg.asked.append([a, b, 1])
                    ranges.append((idx, a, b))
        state.new_gaps = []
        state.gap_deadline = None
        ranges.sort()           # a late segment's gaps open after later ones
        return self._nacks(state, ranges)

    def _outstanding(self, state: _FrameState) -> list | None:
        """The tail timer's ranges: every range still missing and, while the
        final segment is unknown, the next unseen segment. Each counts one
        more request against its range's budget; ``None`` once some range
        was already requested ``max_nack_rounds`` times."""
        limit = self.max_nack_rounds
        segments, unseen = state.segments, state.unseen_asked
        top = state.segment_count or state.max_seen_seg + 1
        ranges, bumped = [], []
        for idx in range(1, top + 1):
            seg = segments.get(idx)
            if seg is None:
                asked = unseen.get(idx, 0)
                if asked >= limit:
                    return None
                unseen[idx] = asked + 1
                ranges.append((idx, 1, 0))
                continue
            if seg.data is not None:
                continue
            for a, b in seg.missing():
                entry = seg.asked_entry(a)
                if entry is None:
                    entry = [a, b, 0]
                    seg.asked.append(entry)
                elif entry[2] >= limit:
                    return None
                # a range's gaps are consecutive: count the range once
                if not bumped or bumped[-1] is not entry:
                    bumped.append(entry)
                ranges.append((idx, a, b))
        for entry in bumped:
            entry[2] += 1
        state.new_gaps = []
        state.gap_deadline = None
        return ranges

    def next_timer_ns(self) -> int | None:
        """The earliest gap, tail or drop deadline of any frame in flight."""
        return min((d for s in self._frames.values() if (d := s.timer_ns()) is not None),
                   default=None)

    def frame_timer_ns(self, frame_id: int) -> int | None:
        """The earliest deadline of frame ``frame_id`` if it is in flight."""
        state = self._frames.get(frame_id)
        return None if state is None else state.timer_ns()

    def on_timer(self, now_ns: int) -> list[ControlPacket]:
        """Fire due timers; returns NACKs to transmit on the reverse path.

        The gap timer asks once for each new gap behind the front. The tail
        timer, due when nothing of the frame arrived for ``tail_timeout_ns``,
        asks again for every outstanding range. A frame whose deadline
        passed, or that still misses a range already requested
        ``max_nack_rounds`` times when its tail timer fires, is dropped.
        """
        out = []
        for frame_id in list(self._frames):
            state = self._frames[frame_id]
            if state.drop_deadline is not None and now_ns >= state.drop_deadline:
                self._drop(state, "deadline")
            elif state.tail_deadline is not None and now_ns >= state.tail_deadline:
                ranges = self._outstanding(state)
                if ranges is None:
                    self._drop(state, "rounds_exhausted")
                    continue
                state.tail_deadline = now_ns + self.tail_timeout_ns
                out += self._nacks(state, ranges)
            elif state.gap_deadline is not None and now_ns >= state.gap_deadline:
                out += self._ask_new_gaps(state)
        return out

    def _drop(self, state: _FrameState, reason: str) -> None:
        frame_id = state.log.frame_id
        state.log.drop_reason = reason
        self.dropped[frame_id] = state.log
        del self._frames[frame_id]
        if self.on_drop is not None:
            self.on_drop(frame_id)

    def finalize(self) -> None:
        """End of run: any frame still in flight counts as dropped."""
        for state in list(self._frames.values()):
            self._drop(state, "unfinished")

    def counters(self) -> dict:
        """Packet counters, as the run's reports read them. Each data packet
        that arrives counts once: stored, duplicate, or late (frame dropped)."""
        return {"packets_received": self.packets_received, "duplicates": self.duplicates,
                "late_packets": self.late_packets}

    @property
    def frames_in_flight(self) -> int:
        return len(self._frames)
