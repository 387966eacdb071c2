"""Tests of socket mode's driver, in one process and without subprocesses.

A socket role feeds ``pipeline.Hop`` through ``sockets.SocketDriver``: each
drained datagram is stamped when it is read, parsed once and handed to the
receiver as a one-packet ``ingest_run``, and malformed or misdirected
datagrams are dropped. A sync socket's datagrams go to ``pipeline.Sync``.
The last tests run hops over loopback sockets.
"""

import dataclasses
import hashlib
import random
import socket

from volstream.clock import NodeClock
from volstream.frames import make_synthetic_frame
from volstream.pipeline import Hop, Sync
from volstream.sockets import HostClock, SocketDriver
from volstream.transport import ReceiverEndpoint, SenderEndpoint
from volstream.wire import (HEADER_SIZE, ControlPacket, PacketType, decode_packet,
                            encode_packet, parse_header)

from conftest import collect_frames, ingest_packet, make_small_config

MS = 1_000_000
NOW = 5_000 * MS
PEER = ("127.0.0.1", 9)


class _Recorder:
    """Stands in for a half-hop's socket: records what the hop sends."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append(decode_packet(data))

    def sendmsg(self, buffers, ancdata, flags, addr):
        self.sent.append(tuple(buffers))


def _receiver():
    return ReceiverEndpoint(1)


def _datagrams(size, seg_size, pps, stream_id=1):
    sender = SenderEndpoint(1, 10**9, NodeClock("sender", "master"), packet_payload_size=pps)
    frame = make_synthetic_frame(1, size, 0, 0, seed=size, segment_size=seg_size)
    return [b"".join(b.datagram(i, b.stamp(i), stream_id))
            for b in sender.send_frame(frame, 0) for i in range(b.count)]


def test_data_datagram_bytes_are_pinned():
    # the 9 datagrams of one three-segment frame, byte for byte
    datagrams = _datagrams(2 * 4_900 + 1_000, 4_900, 1_400)
    assert [len(d) for d in datagrams] == [1_432] * 3 + [732] + [1_432] * 3 + [732, 1_032]
    assert hashlib.sha256(b"".join(datagrams)).hexdigest() == \
        "7be8735eb33f1628ae3e9c461dc8d10a7e3158259520798f1f21ecf58b148dac"


def test_each_datagram_is_sent_as_a_header_and_a_view_of_its_burst():
    # two 47-packet segments; the first lies inside the synthetic body, so
    # its payload is a view of the body the frame was built from
    sender = SenderEndpoint(1, 10**9, NodeClock("sender", "master"))
    frame = make_synthetic_frame(1, 130_000, 0, 0, seed=1)
    bursts = sender.send_frame(frame, 0)
    assert [b.count for b in bursts] == [47, 47]
    assert bursts[0].payload.obj is frame.segments[0].obj
    sock = _Recorder()
    with SocketDriver(HostClock()) as driver:
        hop = Hop(sender, (sock, PEER), (sock, PEER), None, driver)
        for burst in bursts:
            hop.deliver([burst])
            sock.sent.clear()
            driver.run(lambda: True, 0, driver.now() + 1_000 * MS)
            assert len(sock.sent) == burst.count
            for seq, (header, view) in enumerate(sock.sent, 1):
                assert type(header) is bytes and len(header) == HEADER_SIZE
                assert type(view) is memoryview and view.obj is burst.payload.obj
                assert parse_header(header + view)[3:6] == (1, burst.segment_index, seq)


def test_each_data_datagram_is_one_packet_run():
    # three segments of 4, 4 and 1 packets, short last packets; the batch
    # loses one packet, repeats one and swaps two
    datagrams = _datagrams(2 * 4_900 + 1_000, 4_900, 1_400)
    assert len(datagrams) == 9
    order = [0, 2, 3, 4, 5, 5, 7, 6, 8]
    batch = [(datagrams[i], PEER, NOW + k * 1_000) for k, i in enumerate(order)]

    reference = _receiver()
    reference_frames = collect_frames(reference)
    for data, _, arrival in batch:
        ingest_packet(reference, data, arrival)

    got, calls, sock = _receiver(), [], _Recorder()
    got_frames = collect_frames(got)
    ingest_run = got.ingest_run

    def counted(*run):
        calls.append(run[4])
        return ingest_run(*run)

    got.ingest_run = counted
    with SocketDriver(HostClock()) as driver:
        hop = Hop(None, (sock, None), (sock, None), got, driver)
        driver.on_datagrams(hop, batch)
    assert calls == [1] * len(batch)
    assert not got.recv_log and got.frames_in_flight == 1
    assert got.recv_log == reference.recv_log
    assert got.dropped == reference.dropped
    assert got.counters() == reference.counters()
    assert got_frames == reference_frames
    assert [c for c in sock.sent if c.packet_type == PacketType.NACK] == \
        reference.pending_control
    # the gap left behind is the same: the same timers, the same NACKs
    assert got.next_timer_ns() == reference.next_timer_ns()
    assert got.on_timer(NOW + 10 * MS) == reference.on_timer(NOW + 10 * MS)
    assert hop.reverse == (sock, PEER)


class _SteppingClock:
    """Advances 1 µs on every reading."""

    def __init__(self):
        self.t = NOW

    def now_ns(self):
        self.t += 1_000
        return self.t


def test_drained_datagrams_are_stamped_when_read():
    batches = []
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    with tx, SocketDriver(_SteppingClock()) as driver:
        rx = driver.open("127.0.0.1", 0)
        driver.register(rx, batches.append)
        for k in range(3):
            tx.sendto(bytes([k]), rx.getsockname())
        driver.run(lambda: bool(batches), 0, NOW + 10_000 * MS)
    assert [data for data, _, _ in batches[0]] == [b"\x00", b"\x01", b"\x02"]
    arrivals = [t for _, _, t in batches[0]]
    assert arrivals[0] < arrivals[1] < arrivals[2]
    assert driver.last_io_ns == arrivals[2]


def test_malformed_and_misdirected_datagrams_are_dropped():
    data = _datagrams(3000, 3000, 1400)
    good = bytearray(data[0])
    bad_magic = bytes([0xDE, 0xAD]) + bytes(good[2:])
    reserved = bytearray(good)
    reserved[30] = 1
    garbage = [good[:20], bad_magic, bytes(reserved), _datagrams(3000, 3000, 1400, 2)[0]]
    sock = _Recorder()
    receiver = _receiver()
    with SocketDriver(HostClock()) as driver:
        receiving = Hop(None, (sock, None), (sock, None), receiver, driver)
        driver.on_datagrams(receiving, [(d, PEER, NOW) for d in garbage])
        assert receiver.counters() == {"packets_received": 0, "duplicates": 0,
                                       "late_packets": 0}
        assert receiver.frames_in_flight == 0 and not receiver.recv_log
        assert receiving.reverse == (sock, None)     # no peer learned from garbage

        sender = SenderEndpoint(1, 10**9, NodeClock("sender", "master"))
        sender.send_frame(make_synthetic_frame(1, 3000, 0, 0, seed=1), 0)
        sending = Hop(sender, (sock, PEER), (sock, PEER), None, driver)
        foreign = [encode_packet(ControlPacket(packet_type=t, stream_id=2, frame_id=1,
                                               ranges=((1, 1, 1),) if t == PacketType.NACK
                                               else ()))
                   for t in (PacketType.NACK, PacketType.FRAME_ACK)]
        short_nack = encode_packet(ControlPacket(packet_type=PacketType.NACK, stream_id=1,
                                                 frame_id=1, ranges=((1, 1, 1),)))[:-2]
        driver.on_datagrams(sending, [(d, PEER, NOW) for d in
                                      [*garbage, bytes(good), *foreign, short_nack]])
        assert sender.counters() == {"packets_sent": 3, "packets_retransmitted": 0,
                                     "stale_nacks": 0, "frames_acked": 0}
        assert sock.sent == []


class _WithholdOnce(socket.socket):
    """A UDP socket that never sends the first transmission of one packet."""

    withheld = None

    def sendmsg(self, buffers, *args):
        header = buffers[0]
        if self.withheld is None and parse_header(header + buffers[1])[3:6] == (3, 1, 4):
            self.withheld = header
            return len(header) + len(buffers[1])
        return super().sendmsg(buffers, *args)


def test_one_hop_over_loopback_recovers_a_withheld_datagram():
    clock = HostClock()
    tx = _WithholdOnce(socket.AF_INET, socket.SOCK_DGRAM)
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    with tx, rx, SocketDriver(clock) as driver:
        tx.bind(("127.0.0.1", 0))
        rx.bind(("127.0.0.1", 0))
        tx_addr = tx.getsockname()
        sender = SenderEndpoint(1, 100_000_000, NodeClock("sender", "master"))
        receiver = ReceiverEndpoint(1, deadline_ns=0)
        sending = Hop(sender, (tx, rx.getsockname()), (tx, rx.getsockname()), None, driver)
        receiving = Hop(None, (rx, None), (rx, None), receiver, driver)
        driver.add_hop(sending)
        driver.add_hop(receiving)
        start = driver.now()
        for k in range(5):
            # frame 1 is planned 5 ms in the past, so it goes out late
            frame = make_synthetic_frame(k + 1, 20_000, 0, 0, seed=k, segment_size=8_000)
            driver.schedule(start + k * 10 * MS, lambda f, late: sending.deliver(
                sender.send_frame(f, driver.now() - late)), frame, 5 * MS if k == 0 else 0)
        driver.run(lambda: sender.frames_acked == 5, 20 * MS, start + 10_000 * MS)
    assert tx.withheld is not None
    assert sorted(receiver.recv_log) == [1, 2, 3, 4, 5]
    assert sender.frames_acked == 5
    assert len(sender._retained) == 0      # each ACK released its frame
    assert receiver.recv_log[3].nack_count >= 1
    assert sender.packets_retransmitted >= 1
    assert receiving.reverse == (rx, tx_addr)
    # send spans follow the pacer plan; each datagram's stamp is its actual send
    assert receiver.recv_log[1].embedded_first_send_ts >= sender.send_log[1].first_send_ns + 5 * MS


def test_sync_slave_takes_only_the_reply_to_its_outstanding_request():
    # a late reply to an earlier request, whose round trip includes the wait,
    # and a malformed datagram on the sync socket change nothing; the reply
    # that echoes the outstanding request's t1 counts
    clock, sock = NodeClock("sender"), _Recorder()
    with SocketDriver(HostClock()) as driver:
        slave = Sync(clock, None, (sock, PEER), driver, 500 * MS, 3)
        master = Sync(None, NodeClock("receiver0", "master"), None, driver)
        slave.request()
        req = sock.sent[0]
        now = driver.now()
        stale = encode_packet(master.answer(dataclasses.replace(req, t1=req.t1 - 500 * MS),
                                            now, now))
        driver.on_sync(slave, [(stale, PEER, now), (stale[:-1], PEER, now)])
        assert clock.syncs == []
        driver.on_sync(slave, [(encode_packet(master.answer(req, now, now)), PEER, now)])
    assert len(clock.syncs) == 1
    assert slave.outstanding is None


def test_relay_stops_only_after_its_delayed_forwards():
    # the relay holds each frame 100 ms, five times its idle time: its last
    # frame is in long before the forward leaves
    cfg = make_small_config(**{"relay.forward_delay_ms": 100})
    clock = NodeClock("node", "master")
    with SocketDriver(HostClock()) as driver:
        a, b, c, d = (driver.open("127.0.0.1", 0) for _ in range(4))
        sending = Hop(cfg.sender_endpoint(cfg.hop1.pacing_bps[0], clock),
                      (a, b.getsockname()), (a, b.getsockname()), None, driver)
        up = Hop(None, (b, None), (b, None), cfg.receiver_endpoint(), driver)
        down = Hop(cfg.sender_endpoint(cfg.hop2_pacing(0), clock),
                   (c, d.getsockname()), (c, d.getsockname()), None, driver)
        final = Hop(None, (d, None), (d, None), cfg.receiver_endpoint(), driver)
        cfg.relay_node(up.receiver, [down.sender], driver.schedule,
                       lambda r, bursts: down.deliver(bursts), random.Random(0))
        for hop in (sending, up, down, final):
            driver.add_hop(hop)
        start = driver.now()
        for k in range(1, 4):
            frame = make_synthetic_frame(k, 20_000, 0, 0, seed=k)
            driver.schedule(start + k * 10 * MS, lambda f: sending.deliver(
                sending.sender.send_frame(f, driver.now())), frame)
        driver.run(lambda: 3 in up.receiver.recv_log or 3 in up.receiver.dropped,
                   20 * MS, start + 10_000 * MS)
    assert sorted(up.receiver.recv_log) == [1, 2, 3]
    assert sorted(final.receiver.recv_log) == [1, 2, 3]
    assert down.sender.frames_acked == 3
    assert len(down.sender._retained) == 0
