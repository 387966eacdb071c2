from volstream.clock import NodeClock
from volstream.config import apply_overrides
from volstream.frames import make_synthetic_frame
from volstream.pipeline import SimulationRun, run_simulation
from volstream.relay import RelayNode
from volstream.scenarios import scenario_config
from volstream.transport import ReceiverEndpoint, SenderEndpoint

from conftest import collect_frames

MS = 1_000_000


def _dist_times(result, receiver=0):
    return [rec.server_dist_ns for rec in result.receivers[receiver].records
            if rec.completed]


def test_store_forward_distribution_is_exact_serialization(small_cfg):
    # whole 3.52 MB frame store-and-forwarded at 1.5 Gbps: the downstream
    # pacer is idle at frame completion, so distribution time equals the
    # frame's serialization time exactly (zero overhead configured)
    cfg = small_cfg(**{
        "duration_s": 0.1,
        "capture.fps": 10,
        "capture.color_bytes": 3_520_000,
        "capture.depth_bytes": 0,
        "capture.audio_bytes": 0,
        "segment_payload_size": 65_000,
        "transport.packet_payload_size": 1_400,
        "relay.policy": "store_forward",
        "hop1.pacing_bps": [2_000_000_000],
        "hop2.pacing_bps": [1_500_000_000],
        "transport.deadline_ms": 0.0,
    })
    result = run_simulation(cfg, write_outputs=False)
    times = _dist_times(result)
    assert times
    expect = (3_520_000 * 8 * 10**9) // 1_500_000_000   # 18,773,333 ns
    assert all(t == expect for t in times)


def test_cut_through_not_slower_than_store_forward(small_cfg):
    results = {}
    for policy in ("cut_through", "store_forward"):
        cfg = small_cfg(**{"relay.policy": policy, "duration_s": 0.5})
        results[policy] = run_simulation(cfg, write_outputs=False)
    ct = _dist_times(results["cut_through"])
    sf = _dist_times(results["store_forward"])
    assert len(ct) == len(sf)
    assert all(a <= b for a, b in zip(ct, sf))
    assert sum(ct) < sum(sf)
    # byte integrity under both policies
    for result in results.values():
        assert result.payload_mismatches == 0


def test_replication_to_two_receivers_is_byte_identical(small_cfg):
    cfg = small_cfg(receivers=2, **{"duration_s": 0.5})
    sim = SimulationRun(cfg)
    a, b = (collect_frames(ep) for ep in sim.receivers)
    sim.run()
    assert set(a) == set(b) and a
    for fid in a:
        expect = b"".join(make_synthetic_frame(fid, 12_000, 6_000, 2_000, cfg.seed).segments)
        assert a[fid] == expect
        assert b[fid] == expect
    # schedules are independent logs
    assert sim.relay_down[0].send_log[1].last_send_end_ns > 0
    assert sim.relay_down[1].send_log[1].last_send_end_ns > 0


def test_unequal_downstream_rates(small_cfg):
    cfg = small_cfg(receivers=2, **{"hop2.pacing_bps": [100_000_000, 20_000_000],
                                    "duration_s": 0.3})
    result = run_simulation(cfg, write_outputs=False)
    fast = result.receivers[0].summary.stat("frame_rx").mean_ns
    slow = result.receivers[1].summary.stat("frame_rx").mean_ns
    assert slow > fast
    assert result.payload_mismatches == 0


def test_forced_stall_adds_exactly_its_duration(small_cfg):
    # hop2 slower than hop1 so the downstream pacer is frame-backlogged and
    # the stall shifts the whole forwarding window additively
    slow = {"duration_s": 0.3, "hop2.pacing_bps": [80_000_000]}
    base = run_simulation(small_cfg(**slow), write_outputs=False)
    stalled = run_simulation(
        small_cfg(**slow, **{"stall.probability": 1.0,
                             "stall.min_ms": 5.0, "stall.max_ms": 5.0}),
        write_outputs=False)
    times0, times1 = _dist_times(base), _dist_times(stalled)
    assert times0 and len(times0) == len(times1)
    for t0, t1 in zip(times0, times1):
        assert t1 == t0 + 5 * MS


def test_zero_probability_and_zero_duration_stalls_change_nothing(small_cfg):
    base = run_simulation(small_cfg(**{"duration_s": 0.3}), write_outputs=False)
    p0 = run_simulation(small_cfg(**{"duration_s": 0.3, "stall.probability": 0.0,
                                     "stall.min_ms": 8.0, "stall.max_ms": 8.0}),
                        write_outputs=False)
    z = run_simulation(small_cfg(**{"duration_s": 0.3, "stall.probability": 1.0,
                                    "stall.min_ms": 0.0, "stall.max_ms": 0.0}),
                       write_outputs=False)
    assert _dist_times(base) == _dist_times(p0) == _dist_times(z)


def test_sampled_stall_count_is_seeded_and_plausible(small_cfg):
    def run(seed):
        cfg = small_cfg(**{"duration_s": 10.0, "capture.fps": 30,
                           "stall.probability": 0.1, "stall.min_ms": 8.0,
                           "stall.max_ms": 8.0, "seed": seed})
        return run_simulation(cfg, write_outputs=False).sim.relay.stalled_frames

    count = run(5)
    assert count == run(5)                     # reproducible per seed
    assert 15 <= count <= 45                   # ~30 of 300 at p=0.1


def test_no_stall_deterministic_inputs_zero_distribution_variance(small_cfg):
    # collapse switching jitter so every frame sees identical conditions
    cfg = small_cfg(**{"hop1.hop_delay_us_min": 7.5, "hop1.hop_delay_us_max": 7.5,
                       "hop2.hop_delay_us_min": 7.5, "hop2.hop_delay_us_max": 7.5,
                       "duration_s": 0.5})
    result = run_simulation(cfg, write_outputs=False)
    times = _dist_times(result)
    assert len(set(times)) == 1


def test_backpressure_counter_under_overload(small_cfg):
    # downstream pacing far below the arrival rate backlogs the relay queue
    cfg = small_cfg(**{"hop2.pacing_bps": [2_000_000], "duration_s": 1.0,
                       "relay.queue_high_water_ms": 20.0,
                       "transport.deadline_ms": 0.0})
    result = run_simulation(cfg, write_outputs=False)
    assert result.sim.relay.backpressure_events > 0


def test_backpressure_is_counted_per_receiver(tmp_path):
    # receiver 1's downstream is paced at a fifth of receiver 0's, so only
    # its pacer backs up: each summary counts its own receiver's events, and
    # the relay-wide total is their sum
    cfg = scenario_config("paper-default")
    assert apply_overrides(cfg, {"duration_s": "1", "receivers": "2",
                                 "hop2.pacing_bps": "1500000000,300000000",
                                 "out_dir": str(tmp_path)}) == []
    result = run_simulation(cfg)
    counts = [[line for line in open(tmp_path / name)
               if line.startswith("relay_backpressure_events,")]
              for name in ("summary.csv", "summary_r1.csv")]
    assert counts == [["relay_backpressure_events,0,,,,,,\n"],
                      ["relay_backpressure_events,1617,,,,,,\n"]]
    assert result.sim.relay.backpressure_events == 1617


def test_dropped_frames_leave_no_forwarding_gate(tmp_path):
    # cut-through opens a frame's gate at its first forwarded segment; a
    # frame the upstream drops never completes, so the drop must close it.
    # A 10 ms deadline is shorter than a frame's 14 ms hop-1 send span, so
    # the relay drops every frame after forwarding its first segments
    cfg = scenario_config("paper-default")
    assert apply_overrides(cfg, {"duration_s": "2", "hop1.loss_rate": "0.001",
                                 "hop2.loss_rate": "0.001", "transport.deadline_ms": "10",
                                 "out_dir": str(tmp_path)}) == []
    sim = run_simulation(cfg, write_outputs=False).sim
    assert sim.relay_up.dropped
    assert sim.relay._gates == {}


def test_backpressure_counts_only_a_backlog_past_the_high_water_mark():
    # at 1 Gbps a 1,000-byte segment is 8,000 ns of pacer backlog; with the
    # mark at 8,000 ns a backlog of exactly 8,000 counts nothing, and one
    # of 8,001 counts one event
    sender = SenderEndpoint(1, 10**9, NodeClock("relay", "master"))
    relay = RelayNode(ReceiverEndpoint(1), [sender], lambda *a: None, lambda r, b: None,
                      queue_high_water_ns=8_000)
    segment = bytes(1_000)
    relay.forward_segment(1, 1, segment, False, 0)
    relay.forward_segment(1, 2, segment, False, 0)
    assert sender.pacer.busy_until_ns == 16_000
    assert relay.backpressure_events == 0
    relay.forward_segment(1, 3, segment, True, 7_999)
    assert relay.backpressure_events == 1
