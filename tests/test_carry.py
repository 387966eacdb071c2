"""``Link.carry`` against the per-packet reference.

The reference is the per-packet path: ``Link.traverse`` gives one arrival
per packet, and the burst is split into delivered runs the way the
simulation did before bursts were carried as runs. Twin links on the same
seeds must agree on every run, every stamp, every counter, the egress queue
and the state of every seeded stream afterwards.
"""

import random

from hypothesis import given, settings
import hypothesis.strategies as st

from volstream.clock import NodeClock
from volstream.netem import Link, LinkModel, NodeStageModel
from volstream.pacing import RatePacer
from volstream.transport import SenderEndpoint


def _reference_runs(link: Link, burst) -> list:
    arrivals = link.traverse(burst.emissions, burst.wire_bytes, burst.frame_id,
                             burst.segment_index, burst.seq_start, burst.stamps)
    stamps = burst.stamps
    n = burst.count
    runs = []
    i = 0
    while i < n:
        if arrivals[i] is None:
            i += 1
            continue
        j = i
        mn = mx = arrivals[i]
        stamp = stamps[i]
        while j + 1 < n and arrivals[j + 1] is not None:
            j += 1
            a = arrivals[j]
            if a < mn:
                mn = a
                stamp = stamps[j]
            if a > mx:
                mx = a
        runs.append((i, j + 1, mn, mx, stamp))
        i = j + 1
    return runs


def _carried_runs(link: Link, burst) -> list:
    return [(first, end, mn, mx, burst.stamp(arg))
            for first, end, mn, arg, mx in link.carry(burst)]


def _twin_links(model, node_tx, node_rx, seed, busy):
    """Two identical links, each with the loss stream it draws from."""
    links = []
    for _ in range(2):
        loss_rng = random.Random(f"{seed}:loss")
        link = Link("l", model, node_tx, node_rx, loss_rng=loss_rng,
                    switch_rng=random.Random(f"{seed}:switch"),
                    reorder_rng=random.Random(f"{seed}:reorder"))
        link._busy_until = busy
        links.append((link, loss_rng))
    return links


def _link_state(link: Link, loss_rng):
    return (link.sent, link.delivered, link.lost, link._busy_until,
            loss_rng.getstate(), link._switch_rng.getstate())


_stage_ns = st.integers(0, 5_000)

# One planned burst: (segment length, gap before planning, which packets).
# Selector 0 sends the whole segment; any other value picks a retransmit
# range, which may start past the first packet and may be one packet long.
_plan = st.tuples(st.integers(1, 20_000), st.integers(0, 3_000_000),
                  st.one_of(st.just(0), st.integers(1, 10**6)))


@settings(max_examples=300, deadline=None)
@given(
    hops=st.integers(0, 3),
    hop_min=st.integers(0, 10_000),
    span=st.one_of(st.just(0), st.integers(1, 20_000)),
    loss=st.one_of(st.sampled_from([0.0, 0.9, 1.0]), st.floats(0.0, 0.5)),
    pacing_bps=st.integers(10**7, 5 * 10**9),
    bandwidth_bps=st.integers(10**8, 10**10),
    busy=st.one_of(st.just(0), st.integers(1, 2_000_000)),
    pps=st.integers(16, 1_500),
    overhead=st.sampled_from([0, 428]),
    clock=st.sampled_from([(0, 0.0), (3_000_000, 0.0), (-1_700_000, 25.0)]),
    stages=st.tuples(_stage_ns, _stage_ns, _stage_ns, _stage_ns),
    plans=st.lists(_plan, min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_carry_matches_per_packet_reference(hops, hop_min, span, loss, pacing_bps,
                                            bandwidth_bps, busy, pps, overhead, clock,
                                            stages, plans, seed):
    model = LinkModel(bandwidth_bps=bandwidth_bps, distance_km=0.3, hops=hops,
                      hop_delay_min_ns=hop_min, hop_delay_max_ns=hop_min + span,
                      loss_rate=loss)
    tx_sw, tx_hw, rx_sw, rx_hw = stages
    node_tx = NodeStageModel(tx_sw_ns=tx_sw, tx_hw_ns=tx_hw)
    node_rx = NodeStageModel(rx_sw_ns=int(rx_sw * 1.5), rx_hw_ns=int(rx_hw * 1.5))
    offset, drift = clock
    sender = SenderEndpoint(1, pacing_bps, NodeClock("s", true_offset_ns=offset,
                                                     drift_ppm=drift),
                            packet_payload_size=pps, overhead_bits_per_packet=overhead)
    _assert_twins_agree(model, node_tx, node_rx, sender, plans, seed, busy)


@settings(max_examples=100, deadline=None)
@given(hops=st.integers(1, 3), span=st.integers(1, 4), spacing_ns=st.integers(1, 3),
       loss=st.sampled_from([0.0, 0.05]), plans=st.lists(_plan, min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_carry_ties_go_to_the_first_packet(hops, span, spacing_ns, loss, plans, seed):
    # Packets 1-3 ns apart with 0-3 ns of jitter per hop arrive in frequent
    # ties; the earliest arrival's stamp must come from the lowest index.
    model = LinkModel(bandwidth_bps=10**13, hops=hops, hop_delay_min_ns=0,
                      hop_delay_max_ns=span, loss_rate=loss)
    sender = SenderEndpoint(1, (16 * 8 * 10**9) // spacing_ns, NodeClock("s"),
                            packet_payload_size=16)
    _assert_twins_agree(model, NodeStageModel(), NodeStageModel(), sender,
                        plans, seed, busy=0)


def _assert_twins_agree(model, node_tx, node_rx, sender, plans, seed, busy):
    (carried, carried_loss), (reference, reference_loss) = _twin_links(
        model, node_tx, node_rx, seed, busy)
    pps = sender.packet_payload_size
    now = 0
    for k, (seg_len, gap, select) in enumerate(plans):
        now += gap
        n = -(-seg_len // pps)
        if select == 0:
            seq_start, count = 1, n
        else:
            seq_start = 1 + select % n
            count = 1 + (select // n) % (n - seq_start + 1)
        burst = sender._plan_burst(now, k + 1, 1, n, seq_start, count, bytes(seg_len), 0)
        assert _carried_runs(carried, burst) == _reference_runs(reference, burst)
        assert _link_state(carried, carried_loss) == _link_state(reference, reference_loss)


def _paced_setup(loss=0.0):
    model = LinkModel(bandwidth_bps=10_000_000_000, hops=2, loss_rate=loss)
    node = NodeStageModel(tx_sw_ns=2_000, tx_hw_ns=1_000, rx_sw_ns=4_000, rx_hw_ns=2_000)
    link = Link("l", model, node, node, loss_rng=random.Random(1),
                switch_rng=random.Random(2), reorder_rng=random.Random(3))
    sender = SenderEndpoint(1, 1_500_000_000, NodeClock("s"), packet_payload_size=256,
                            overhead_bits_per_packet=428)
    return link, sender


def test_paced_burst_skips_the_per_packet_path(monkeypatch):
    link, sender = _paced_setup(loss=0.001)
    burst = sender._plan_burst(0, 1, 1, 254, 1, 254, bytes(65_000), 0)

    def per_packet(*args, **kwargs):
        raise AssertionError("a paced burst on a clean link must not go packet by packet")

    monkeypatch.setattr(Link, "traverse", per_packet)
    runs = link.carry(burst)
    assert link.sent == 254 and link.delivered + link.lost == 254
    assert sum(end - first for first, end, *_ in runs) == link.delivered


def test_one_packet_and_very_lossy_bursts_skip_the_per_packet_path(monkeypatch):
    def per_packet(*args, **kwargs):
        raise AssertionError("a burst that cannot queue must not go packet by packet")

    monkeypatch.setattr(Link, "traverse", per_packet)
    link, sender = _paced_setup()
    link.carry(sender._plan_burst(0, 1, 1, 1, 1, 1, bytes(200), 0))
    lossy, sender = _paced_setup(loss=0.5)
    lossy.carry(sender._plan_burst(0, 1, 1, 254, 1, 254, bytes(65_000), 0))
    assert (link.sent, lossy.sent) == (1, 254)
    assert lossy.lost > 0 and lossy.delivered + lossy.lost == 254


@settings(max_examples=50, deadline=None)
@given(rate=st.integers(10**6, 10**10), pps=st.integers(1, 9_000),
       overhead=st.integers(0, 1_000), seg_len=st.integers(1, 50_000),
       now=st.integers(0, 10**9))
def test_burst_progression_matches_packet_by_packet_pacing(rate, pps, overhead, seg_len, now):
    sender = SenderEndpoint(1, rate, NodeClock("s"), packet_payload_size=pps,
                            overhead_bits_per_packet=overhead)
    n = -(-seg_len // pps)
    burst = sender._plan_burst(now, 1, 1, n, 1, n, bytes(seg_len), 0)
    pacer = RatePacer(rate)
    emissions = []
    for w in burst.wire_bytes:
        base, bits0 = pacer.charge(now, 1, 0, (w - burst.full_wire + pps) * 8 + overhead)
        emissions.append(base + (bits0 * 10**9) // rate)
    assert burst.emissions == emissions
    assert [burst.stamp(i) for i in range(n)] == emissions
    assert sender.pacer.busy_until_ns == pacer.busy_until_ns
    assert sum(burst.wire_bytes) - n * (burst.full_wire - pps) == seg_len
