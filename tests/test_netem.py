import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from volstream.errors import ConfigError, VolstreamError
from volstream.netem import (TRACE_COLUMNS, EventQueue, Link, LinkModel,
                             NodeStageModel, run_probe_experiment)

US = 1_000


STAGE_COLUMNS = TRACE_COLUMNS[6:14]    # tx_sw_ns .. rx_sw_ns


def _one_packet_delay(model, tx, rx, size, emission=1_000):
    """Delay of one packet over an idle link, and its traced stages.

    Tracing must not change the arrival, and the trace row's stages must
    add up to the delay exactly.
    """
    rows = []
    plain = Link("l", model, tx, rx).traverse([emission], [size])
    traced = Link("l", model, tx, rx,
                  trace=lambda *row: rows.append(row)).traverse([emission], [size])
    assert plain == traced
    [row] = rows
    stages = dict(zip(STAGE_COLUMNS, row[6:14]))
    delay = traced[0] - emission
    assert row[0] == traced[0]
    assert sum(stages.values()) == delay
    return delay, stages


def test_packet_delay_stage_sum():
    # 1024 B at 10 Gbps over 1 km and 2 hops of 7.5 us, stages 2/1/3/2 us:
    # 0.8192 us serialization + 5 us + 15 us + 8 us stages = 28.8 us
    link = LinkModel(bandwidth_bps=10_000_000_000, distance_km=1.0, hops=2,
                     hop_delay_min_ns=7_500, hop_delay_max_ns=7_500)
    tx = NodeStageModel(tx_sw_ns=2_000, tx_hw_ns=1_000)
    rx = NodeStageModel(rx_sw_ns=3_000, rx_hw_ns=2_000)
    delay, stages = _one_packet_delay(link, tx, rx, 1024)
    assert stages["serialization_ns"] == 819    # floor(0.8192 us) at ns resolution
    assert delay == 2_000 + 1_000 + 819 + 5_000 + 15_000 + 2_000 + 3_000


def test_whole_frame_serialization_reference_rates():
    zero = NodeStageModel()
    for bandwidth_bps, expect in ((1_000_000_000, 28_160_000), (10_000_000_000, 2_816_000)):
        link = LinkModel(bandwidth_bps=bandwidth_bps, hops=0)
        delay, stages = _one_packet_delay(link, zero, zero, 3_520_000)
        assert delay == stages["serialization_ns"] == expect


def test_serialization_only_when_all_other_stages_zero():
    link = LinkModel(bandwidth_bps=2_000_000_000, hops=0)
    zero = NodeStageModel()
    delay, stages = _one_packet_delay(link, zero, zero, 500)
    assert delay == stages["serialization_ns"] == (500 * 8 * 10**9) // 2_000_000_000


# -- event queue ----------------------------------------------------------------


def test_equal_time_events_fire_in_insertion_order():
    q = EventQueue()
    fired = []
    q.schedule(10, fired.append, "a")
    q.schedule(10, fired.append, "b")
    q.schedule(5, fired.append, "c")
    q.run()
    assert fired == ["c", "a", "b"]
    assert q.now == 10


def test_empty_queue_step_reports_completion():
    # an empty queue has nothing to fire: run() returns at once, with 0 events
    q = EventQueue()
    assert q.run() == 0
    assert q.now == 0


def test_scheduling_in_the_past_fails_fast():
    q = EventQueue()
    q.schedule(10, lambda: None)
    q.run()
    with pytest.raises(ConfigError):
        q.schedule(5, lambda: None)


def test_an_event_rescheduling_itself_at_now_raises_with_its_name():
    # a livelock at one virtual instant is an error that names the event,
    # not a hang
    q = EventQueue()

    def again():
        q.schedule(q.now, again)
    q.schedule(7, again)
    with pytest.raises(VolstreamError, match=r"at 7 ns.*again"):
        q.run()
    assert q.now == 7


def test_large_random_schedule_replays_identically():
    # a hundred thousand random times: events fire in ascending time, ties
    # in insertion order, which is what makes a run replay identically
    rng = random.Random(1234)
    q = EventQueue()
    fired = []
    times = [rng.randrange(0, 100_000) for _ in range(100_000)]
    for i, t in enumerate(times):
        q.schedule(t, fired.append, i)
    q.run()
    assert fired == sorted(range(len(times)), key=times.__getitem__)


# -- link runtime ------------------------------------------------------------------


def _plain_link(**model_kw):
    model = LinkModel(bandwidth_bps=model_kw.pop("bandwidth_bps", 1_000_000_000),
                      hops=model_kw.pop("hops", 0), **model_kw)
    return Link("l", model, NodeStageModel(), NodeStageModel())


def test_fifo_serialization_queues_back_to_back_packets():
    link = _plain_link()
    ser = (1000 * 8 * 10**9) // 1_000_000_000
    arrivals = link.traverse([0, 0, 0], [1000, 1000, 1000])
    assert arrivals == [ser, 2 * ser, 3 * ser]


def test_spaced_emissions_do_not_queue():
    link = _plain_link()
    ser = (1000 * 8 * 10**9) // 1_000_000_000
    gap = 10 * ser
    arrivals = link.traverse([0, gap], [1000, 1000])
    assert arrivals == [ser, gap + ser]


@settings(max_examples=25, deadline=None)
@given(loss=st.floats(0.0, 0.9), n=st.integers(1, 400), seed=st.integers(0, 10_000))
def test_loss_accounting(loss, n, seed):
    model = LinkModel(bandwidth_bps=10_000_000, loss_rate=loss)
    link = Link("l", model, NodeStageModel(), NodeStageModel(),
                loss_rng=random.Random(seed))
    arrivals = link.traverse(list(range(0, n * 1000, 1000)), [100] * n)
    assert link.sent == n
    assert link.delivered + link.lost == link.sent
    assert sum(a is None for a in arrivals) == link.lost


def _lossy_link(loss, seed):
    model = LinkModel(bandwidth_bps=10_000_000, loss_rate=loss)
    rng = random.Random(seed)
    return Link("l", model, NodeStageModel(), NodeStageModel(), loss_rng=rng), rng


@settings(max_examples=6, deadline=None)
@given(loss=st.sampled_from([0.001, 0.01, 0.5]), seed=st.integers(0, 10_000),
       burst=st.integers(1, 5_000))
def test_per_loss_sampler_loses_its_rate(loss, seed, burst):
    # loss is drawn as the gap to the next lost packet, carried across
    # bursts: over 10**6 packets the lost share stays within 4 sigma of p
    link, _ = _lossy_link(loss, seed)
    n, lost = 10**6, 0
    for start in range(0, n, burst):
        count = min(burst, n - start)
        hits = link._losses(count)
        assert hits == sorted(set(hits)) and all(0 <= i < count for i in hits)
        lost += len(hits)
    sigma = (n * loss * (1 - loss)) ** 0.5
    assert abs(lost - n * loss) <= 4 * sigma


def test_loss_rate_one_loses_every_packet_and_zero_draws_nothing():
    link, rng = _lossy_link(1.0, 3)
    state = rng.getstate()
    assert link.traverse(list(range(0, 50_000, 1000)), [100] * 50) == [None] * 50
    assert link.lost == link.sent == 50
    assert rng.getstate() == state          # certain loss needs no draw
    link, rng = _lossy_link(0.0, 3)
    state = rng.getstate()
    assert None not in link.traverse(list(range(0, 50_000, 1000)), [100] * 50)
    assert rng.getstate() == state


def test_reorder_adds_extra_delay_to_sampled_packets():
    model = LinkModel(bandwidth_bps=1_000_000_000, reorder_rate=1.0,
                      reorder_extra_ns=70_000)
    link = Link("l", model, NodeStageModel(), NodeStageModel(),
                reorder_rng=random.Random(1))
    base = _plain_link().traverse([0], [1000])[0]
    assert link.traverse([0], [1000])[0] == base + 70_000
    assert link.reordered == 1


def test_switching_jitter_is_seeded_and_bounded():
    model = LinkModel(bandwidth_bps=10_000_000_000, hops=2,
                      hop_delay_min_ns=5_000, hop_delay_max_ns=10_000)
    a = Link("l", model, NodeStageModel(), NodeStageModel(),
             switch_rng=random.Random(9)).traverse([0] * 50, [100] * 50)
    b = Link("l", model, NodeStageModel(), NodeStageModel(),
             switch_rng=random.Random(9)).traverse([0] * 50, [100] * 50)
    assert a == b
    ser = (100 * 8 * 10**9) // 10_000_000_000
    for i, arr in enumerate(a):
        sw = arr - (i + 1) * ser
        assert 2 * 5_000 <= sw < 2 * 10_000


# -- probe experiment ----------------------------------------------------------------


def _probe_setup(rx_load=1.0):
    link = LinkModel(bandwidth_bps=10_000_000_000, distance_km=1.0, hops=2)
    tx = NodeStageModel(tx_sw_ns=2_000, tx_hw_ns=1_000)
    rx = NodeStageModel(rx_sw_ns=int(4_000 * rx_load), rx_hw_ns=int(2_000 * rx_load))
    return link, tx, rx


def test_probe_totals_increase_with_packet_size():
    link, tx, rx = _probe_setup()
    results = run_probe_experiment(link, tx, rx, [128, 512, 1024], 300, seed=5)
    totals = [r.stages["total"].mean_ns for r in results]
    assert totals[0] < totals[1] < totals[2]
    assert all(r.stages["total"].p99_ns < 50_000 for r in results)


def test_probe_single_sample_serialization_only():
    link = LinkModel(bandwidth_bps=1_000_000_000, hops=0)
    zero = NodeStageModel()
    results = run_probe_experiment(link, zero, zero, [1000], 1, seed=1)
    _, stages = _one_packet_delay(link, zero, zero, 1000)
    assert results[0].stages["total"].mean_ns == stages["serialization_ns"] == 8_000


def test_probe_loaded_receiver_dominates():
    link, tx, rx_loaded = _probe_setup(rx_load=10.0)
    results = run_probe_experiment(link, tx, rx_loaded, [512], 100, seed=2)
    stages = results[0].stages
    rx_sw = stages["rx_sw"].mean_ns
    for name in ("tx_sw", "tx_hw", "serialization", "propagation", "switching", "rx_hw"):
        assert rx_sw > stages[name].mean_ns


@pytest.mark.parametrize("hops", [0, 2])
def test_probe_is_lossless_whatever_the_link_model(hops):
    # the probe's link gets no loss or reorder stream, so the model's loss
    # and reorder rates change nothing
    _, tx, rx = _probe_setup()
    clean = LinkModel(bandwidth_bps=10_000_000_000, distance_km=1.0, hops=hops)
    lossy = LinkModel(bandwidth_bps=10_000_000_000, distance_km=1.0, hops=hops,
                      loss_rate=0.5, reorder_rate=1.0)
    results = run_probe_experiment(clean, tx, rx, [128, 1024], 50, seed=3)
    assert results == run_probe_experiment(lossy, tx, rx, [128, 1024], 50, seed=3)


