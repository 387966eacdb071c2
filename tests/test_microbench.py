"""Microbenchmarks of burst planning, carriage, datagram building,
reassembly and the payload check (pytest-benchmark).

Sizes are the two benchmark geometries: 47-packet bursts (one 65,000 B
segment of 1,400 B packets, ``paper-default``) and 254-packet bursts (256 B
packets, ``fanout-small``); reassembly, the payload check, and frame
synthesis plus ``send_frame``, use the 3.52 MB ``paper-default`` frame of 55
segments. Rounds are fixed so the whole file stays cheap inside the tier-1
run; compare the printed means across revisions. Totals are asserted
against the rounds that ran, so the file also passes under
``--benchmark-disable``, which runs each benchmark once.
"""

import random

import pytest

from volstream.appemu import RenderProfile, render_complete
from volstream.clock import NodeClock
from volstream.frames import is_synthetic_frame, make_synthetic_frame
from volstream.netem import Link, LinkModel, NodeStageModel
from volstream.transport import ReceiverEndpoint, SenderEndpoint
from volstream.wire import FLAG_FINAL_SEGMENT, HEADER_SIZE

ROUNDS = 200
SEGMENT = bytes(65_000)
BURSTS = {47: 1_400, 254: 256}     # packets per burst -> packet payload size
NODE = NodeStageModel(tx_sw_ns=2_000, tx_hw_ns=1_000, rx_sw_ns=4_000, rx_hw_ns=2_000)


def _sender(pps):
    return SenderEndpoint(1, 1_500_000_000, NodeClock("s"), packet_payload_size=pps,
                          overhead_bits_per_packet=428)


def _link(loss=0.0):
    model = LinkModel(bandwidth_bps=10_000_000_000, distance_km=1.0, hops=2,
                      loss_rate=loss)
    return Link("hop2", model, NODE, NODE, loss_rng=random.Random(1),
                switch_rng=random.Random(2), reorder_rng=random.Random(3))


def _fresh_bursts(pps):
    """Pedantic setup: a new whole-segment burst 10 ms after the last one;
    ``setup.rounds`` counts the rounds it set up."""
    sender = _sender(pps)
    n = -(-len(SEGMENT) // pps)

    def setup():
        setup.rounds += 1
        return (sender._plan_burst(setup.rounds * 10_000_000, 1, 1, n, 1, n, SEGMENT, 0),), {}
    setup.rounds = 0
    return setup


@pytest.mark.parametrize("count", sorted(BURSTS))
def test_bench_plan_burst(benchmark, count):
    pps = BURSTS[count]
    sender = _sender(pps)
    burst = benchmark.pedantic(sender._plan_burst,
                               args=(0, 1, 1, count, 1, count, SEGMENT, 0),
                               rounds=ROUNDS, iterations=1)
    assert burst.count == count


@pytest.mark.parametrize("loss", [0.0, 0.001], ids=["clean", "loss0.1pct"])
@pytest.mark.parametrize("count", sorted(BURSTS))
def test_bench_carry(benchmark, count, loss):
    link = _link(loss)
    setup = _fresh_bursts(BURSTS[count])
    benchmark.pedantic(link.carry, setup=setup, rounds=ROUNDS, iterations=1)
    assert link.sent == setup.rounds * count


@pytest.mark.parametrize("count", sorted(BURSTS))
def test_bench_traverse_per_packet(benchmark, count):
    link = _link()
    plan = _fresh_bursts(BURSTS[count])

    def setup():
        (burst,), _ = plan()
        return (burst.emissions, burst.wire_bytes), {}

    arrivals = benchmark.pedantic(link.traverse, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(arrivals) == count and None not in arrivals


@pytest.mark.parametrize("count", sorted(BURSTS))
def test_bench_datagrams(benchmark, count):
    # every packet of a fresh burst as socket mode sends it: header and payload view
    setup = _fresh_bursts(BURSTS[count])
    total = [0]

    def datagrams(burst):
        for i in range(burst.count):
            header, view = burst.datagram(i, burst.first_ns, 1)
            total[0] += len(header) + len(view)

    benchmark.pedantic(datagrams, setup=setup, rounds=ROUNDS, iterations=1)
    assert total[0] == setup.rounds * (count * HEADER_SIZE + len(SEGMENT))


def _ingest(receiver, burst, frame_id=1):
    return receiver.ingest_run(frame_id, burst.segment_index, burst.packets_in_segment,
                               burst.seq_start, burst.count, burst.payload,
                               burst.packet_payload_size, burst.first_ns,
                               burst.first_ns, 0, burst.flags)


def test_bench_ingest_segment(benchmark):
    # one 47-packet run completes segment 1 of a fresh frame
    burst = _sender(1_400)._plan_burst(0, 1, 1, 47, 1, 47, SEGMENT, 0)
    receiver = ReceiverEndpoint(1, deadline_ns=0)
    rounds = [0]

    def setup():
        rounds[0] += 1
        return (receiver, burst, rounds[0]), {}

    log = benchmark.pedantic(_ingest, setup=setup, rounds=ROUNDS, iterations=1)
    assert log is None                  # stored, no frame completed
    assert receiver.frames_in_flight == rounds[0]
    assert (receiver.packets_received, receiver.duplicates) == (47 * rounds[0], 0)


def test_bench_ingest_frame(benchmark):
    # 55 one-run segments complete a 3.52 MB frame, its payload check included
    bursts = _sender(1_400).send_frame(make_synthetic_frame(1, 3_520_000, 0, 0, seed=1), 0)
    assert len(bursts) == 55 and bursts[-1].flags & FLAG_FINAL_SEGMENT

    def complete(receiver):
        for b in bursts:
            log = _ingest(receiver, b)
        return log

    rendered = []

    def setup():
        receiver = ReceiverEndpoint(1, deadline_ns=0)
        receiver.on_frame = lambda frame_id, segments, log: rendered.append(
            render_complete(RenderProfile(), frame_id, log.complete_ns, is_synthetic_frame(
                segments, frame_id, 3_520_000, 0, 0, 1, 65_000)))
        return (receiver,), {}

    log = benchmark.pedantic(complete, setup=setup, rounds=ROUNDS // 4, iterations=1)
    assert log is not None and log.frame_id == 1
    assert rendered and all(record.payload_intact for record in rendered)


def test_bench_payload_check(benchmark):
    # the receiver's payload check of one 3.52 MB paper frame whose 55
    # segments are copies, so no segment aliases the generator's window
    args = (1, 1_400_000, 1_920_000, 200_000, 1, 65_000)
    segments = [bytes(segment) for segment in make_synthetic_frame(*args).segments]
    assert sum(map(len, segments)) == 3_520_000
    assert benchmark.pedantic(is_synthetic_frame, args=(segments, *args), rounds=ROUNDS,
                              iterations=1)


def test_bench_capture_send_frame(benchmark):
    # synthesize the 3.52 MB paper frame (body cache warm) and plan its 55 bursts
    make_synthetic_frame(1, 3_520_000, 0, 0, seed=1)
    sender = _sender(1_400)
    rounds = [0]

    def capture_send():
        rounds[0] += 1
        frame = make_synthetic_frame(rounds[0], 3_520_000, 0, 0, seed=1)
        return sender.send_frame(frame, 0)

    bursts = benchmark.pedantic(capture_send, rounds=ROUNDS, iterations=1)
    assert len(bursts) == 55 and sender.packets_sent == 2_546 * rounds[0]
