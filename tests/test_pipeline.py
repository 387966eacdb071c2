import copy
import hashlib
import os

import pytest

from volstream import pipeline
from volstream.frames import _synthetic_body, make_synthetic_frame
from volstream.pipeline import SimulationRun, run_simulation
from volstream.runner import run_experiment
from volstream.scenarios import scenario_config

from conftest import collect_frames, flip_one_byte, make_small_config, traced_peak_bytes

MS = 1_000_000


def _hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_same_seed_reproduces_byte_identical_reports(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg = make_small_config(out_dir=str(tmp_path / sub),
                                **{"hop1.loss_rate": 0.02, "hop2.loss_rate": 0.02,
                                   "stall.probability": 0.2, "stall.max_ms": 3.0,
                                   "transport.deadline_ms": 0.0,
                                   "transport.max_nack_rounds": 64})
        run_experiment(cfg, write_outputs=True)
        outs.append(cfg.out_dir)
    for name in ("frames.csv", "summary.csv"):
        assert _hash(os.path.join(outs[0], name)) == _hash(os.path.join(outs[1], name))
    # the dumped config differs only in its out_dir line
    diff = {a for a, b in zip(open(os.path.join(outs[0], "config.txt")),
                              open(os.path.join(outs[1], "config.txt"))) if a != b}
    assert all(line.startswith("out_dir=") for line in diff)


def test_different_seed_changes_lossy_run(tmp_path):
    hashes = []
    for seed in (1, 2):
        cfg = make_small_config(out_dir=str(tmp_path / str(seed)), seed=seed,
                                **{"hop1.loss_rate": 0.05,
                                   "transport.deadline_ms": 0.0,
                                   "transport.max_nack_rounds": 64})
        run_simulation(cfg, write_outputs=True)
        hashes.append(_hash(os.path.join(cfg.out_dir, "frames.csv")))
    assert hashes[0] != hashes[1]


def test_loss_recovery_end_to_end_byte_identity(small_cfg):
    cfg = small_cfg(**{"hop1.loss_rate": 0.05, "hop2.loss_rate": 0.05,
                       "transport.deadline_ms": 0.0,
                       "transport.max_nack_rounds": 64})
    sim = SimulationRun(cfg)
    payloads = collect_frames(sim.receivers[0])
    result = sim.run()
    summary = result.primary.summary
    assert summary.frames_completed == summary.frames_sent
    for fid, payload in payloads.items():
        assert payload == b"".join(make_synthetic_frame(fid, 12_000, 6_000, 2_000,
                                                        cfg.seed).segments)
    assert summary.packet_counts["hop1_lost"] > 0
    assert summary.packet_counts["hop2_lost"] > 0


def test_link_conservation_counters(small_cfg):
    # the summary's hop counters come from the endpoints' own counters: each
    # must equal what the hop's forward link saw, late packets included. The
    # 3 ms deadline is shorter than a 20 KB frame's send span on either hop
    # (3.2 ms at 50 Mbps, 4 ms at 40 Mbps), so frames drop with packets
    # still to come
    cfg = small_cfg(receivers=2, **{"hop1.loss_rate": 0.05, "hop2.loss_rate": 0.05,
                                    "hop1.pacing_bps": 50_000_000,
                                    "hop2.pacing_bps": 40_000_000,
                                    "transport.deadline_ms": 3.0,
                                    "transport.max_nack_rounds": 64})
    result = run_simulation(cfg, write_outputs=False)
    sim = result.sim
    for link in (sim.h1f, sim.h1r, *sim.h2f, *sim.h2r):
        assert link.delivered + link.lost == link.sent
    hops = [(sim.h1f, sim.sender, sim.relay_up)] + \
        [(sim.h2f[r], sim.relay_down[r], sim.receivers[r]) for r in range(2)]
    for link, tx, rx in hops:
        # everything the sending endpoint emitted entered the link, and
        # everything the link delivered was stored, a duplicate, or late
        assert link.sent == tx.packets_sent + tx.packets_retransmitted
        assert link.delivered == rx.packets_received + rx.duplicates + rx.late_packets
        assert link.lost > 0 and tx.packets_retransmitted > 0
    assert sim.relay_up.late_packets > 0
    assert all(ep.late_packets > 0 for ep in sim.receivers)
    for r, rr in enumerate(result.receivers):
        counts = rr.summary.packet_counts
        for hop, link in (("hop1", sim.h1f), ("hop2", sim.h2f[r])):
            assert (counts[f"{hop}_sent"], counts[f"{hop}_delivered"], counts[f"{hop}_lost"]) \
                == (link.sent, link.delivered, link.lost)


def test_deadline_drops_are_counted(small_cfg):
    cfg = small_cfg(**{"hop1.loss_rate": 0.4, "transport.deadline_ms": 15.0,
                       "transport.max_nack_rounds": 1,
                       "transport.tail_timeout_ms": 30.0,
                       "transport.nack_delay_ms": 30.0})
    result = run_simulation(cfg, write_outputs=False)
    summary = result.primary.summary
    assert summary.frames_dropped > 0
    assert summary.frames_completed + summary.frames_dropped == summary.frames_sent
    rows = [r for r in result.primary.records if not r.completed]
    assert len(rows) == summary.frames_dropped


def test_raising_pacing_never_slows_reception(small_cfg):
    means = []
    for rate in (50_000_000, 200_000_000):
        cfg = small_cfg(**{"hop2.pacing_bps": [rate]})
        result = run_simulation(cfg, write_outputs=False)
        means.append(result.primary.summary.stat("frame_rx").mean_ns)
    assert means[1] <= means[0]


def test_loaded_relay_inverts_hop_latency_despite_fiber(small_cfg):
    # hop 2 crosses 1 km of fiber and two switches, yet inflating the relay's
    # receive-side kernel cost tenfold makes hop 1 the slower segment
    baseline = run_simulation(small_cfg(), write_outputs=False)
    loaded = run_simulation(small_cfg(**{"node.relay.rx_sw_us": 40.0,
                                         "node.relay.rx_hw_us": 20.0}),
                            write_outputs=False)
    base = baseline.primary.summary
    load = loaded.primary.summary
    assert base.stat("network_l1").mean_ns < base.stat("network_l2").mean_ns
    assert load.stat("network_l1").mean_ns > load.stat("network_l2").mean_ns


def test_trace_rows_are_stage_additive(small_cfg):
    cfg = small_cfg(**{"trace.enabled": True, "duration_s": 0.2})
    result = run_simulation(cfg, write_outputs=True)
    assert result.trace_rows
    for row in result.trace_rows:
        (time_ns, link, frame_id, seg, seq, status, tx_sw, tx_hw, queue, ser,
         prop, sw, rx_hw, rx_sw, emission, stamp) = row
        if status != "delivered":
            continue
        assert time_ns - emission == tx_sw + tx_hw + queue + ser + prop + sw + rx_hw + rx_sw
    trace_path = os.path.join(cfg.out_dir, "trace.csv")
    assert os.path.exists(trace_path)
    assert len(open(trace_path).read().splitlines()) == len(result.trace_rows) + 1


def test_event_trace_is_deterministic(tmp_path):
    hashes = []
    for sub in ("t1", "t2"):
        cfg = make_small_config(out_dir=str(tmp_path / sub),
                                **{"trace.enabled": True, "duration_s": 0.3,
                                   "hop1.loss_rate": 0.02,
                                   "transport.deadline_ms": 0.0,
                                   "transport.max_nack_rounds": 64})
        run_simulation(cfg, write_outputs=True)
        hashes.append(_hash(os.path.join(cfg.out_dir, "trace.csv")))
    assert hashes[0] == hashes[1]


def test_two_receivers_write_two_reports(tmp_path):
    cfg = make_small_config(out_dir=str(tmp_path / "multi"), receivers=2,
                            **{"duration_s": 0.3})
    result = run_simulation(cfg, write_outputs=True)
    assert os.path.exists(os.path.join(cfg.out_dir, "frames.csv"))
    assert os.path.exists(os.path.join(cfg.out_dir, "frames_r1.csv"))
    assert result.receivers[0].summary.frames_completed > 0
    assert result.receivers[1].summary.frames_completed > 0


def test_frame_missing_from_any_log_gets_a_dropped_record(small_cfg):
    # role logs can lack a frame the final receiver completed (a role that
    # died early); the record is then dropped, not an assembly error
    result = run_simulation(small_cfg(receivers=2, duration_s=0.3), write_outputs=False)
    sim = result.sim
    assert all(rec.completed for rr in result.receivers for rec in rr.records)
    for r in range(2):
        for node, name in (("sender", "app_tx"), ("sender", "send_log"),
                           ("relay", "recv_log"), ("relay", "send_logs"),
                           ("receiver", "recv_log"), ("receiver", "app_rx")):
            logs = copy.deepcopy(sim.logs)
            owner = logs.receivers[r] if node == "receiver" else getattr(logs, node)
            table = getattr(owner, name)
            del (table[r] if isinstance(table, list) else table)[2]
            records = [pipeline.assemble_record(f, logs, r)
                       for f in range(1, sim.frame_count + 1)]
            frame_ids = list(range(1, sim.frame_count + 1))
            assert [rec.frame_id for rec in records] == frame_ids
            assert [rec.completed for rec in records] == [f != 2 for f in frame_ids]


def test_identities_hold_over_random_scenarios():
    # ten seeded random configurations; identities must hold at ns resolution
    # on every record, completed or dropped
    import random
    for seed in range(10):
        rng = random.Random(f"scenario:{seed}")
        cfg = make_small_config(
            out_dir="unused", seed=seed,
            **{
                "duration_s": 0.4,
                "capture.fps": rng.choice([15, 30, 60]),
                "capture.color_bytes": rng.randrange(5_000, 60_000),
                "capture.depth_bytes": rng.randrange(0, 40_000),
                "capture.audio_bytes": rng.randrange(1, 5_000),
                "capture.app_tx_ms": rng.choice([0.0, 2.0, 7.3]),
                "render.app_rx_ms": rng.choice([0.0, 5.0, 22.0]),
                "segment_payload_size": rng.randrange(1_000, 20_000),
                "transport.packet_payload_size": rng.randrange(400, 1_400),
                "transport.overhead_bits_per_packet": rng.choice([0, 256, 428]),
                "transport.deadline_ms": 0.0,
                "transport.max_nack_rounds": 64,
                "hop1.loss_rate": rng.choice([0.0, 0.01]),
                "hop2.loss_rate": rng.choice([0.0, 0.01]),
                "hop1.pacing_bps": [rng.choice([50, 100, 400]) * 10**6],
                "hop2.pacing_bps": [rng.choice([50, 100, 400]) * 10**6],
                "relay.policy": rng.choice(["cut_through", "store_forward"]),
                "relay.forward_delay_ms": rng.choice([0.0, 0.5]),
                "stall.probability": rng.choice([0.0, 0.3]),
                "stall.max_ms": 2.0,
                "clock.sender_offset_ms": rng.choice([0.0, 3.0, -2.0]),
                "clock.relay_offset_ms": rng.choice([0.0, 1.0]),
            })
        result = run_simulation(cfg, write_outputs=False)
        for rec in result.primary.records:
            rec.check_identities()
            assert rec.service_l_ns == rec.app_tx_ns + rec.frame_l_ns + rec.app_rx_ns
        assert result.payload_mismatches == 0


def test_reordering_does_not_break_reassembly(small_cfg):
    cfg = small_cfg(**{"hop1.reorder_rate": 0.05, "hop2.reorder_rate": 0.05,
                       "hop1.reorder_extra_us": 300.0,
                       "hop2.reorder_extra_us": 300.0,
                       "transport.deadline_ms": 0.0,
                       "transport.max_nack_rounds": 64})
    sim = SimulationRun(cfg)
    payloads = collect_frames(sim.receivers[0])
    result = sim.run()
    summary = result.primary.summary
    assert summary.frames_completed == summary.frames_sent
    assert sim.h1f.reordered + sim.h2f[0].reordered > 0
    for fid, payload in payloads.items():
        assert payload == b"".join(make_synthetic_frame(fid, 12_000, 6_000, 2_000,
                                                        cfg.seed).segments)


def test_lost_nacks_on_reverse_path_still_recover(small_cfg):
    cfg = small_cfg(**{"hop1.loss_rate": 0.05, "hop2.loss_rate": 0.05,
                       "hop1.reverse_loss_rate": 0.3,
                       "hop2.reverse_loss_rate": 0.3,
                       "transport.deadline_ms": 0.0,
                       "transport.max_nack_rounds": 256})
    result = run_simulation(cfg, write_outputs=False)
    summary = result.primary.summary
    assert summary.frames_completed == summary.frames_sent
    assert result.sim.h1r.lost + result.sim.h2r[0].lost > 0


def test_clock_offset_correction(small_cfg):
    cfg = small_cfg(**{"clock.sender_offset_ms": 3.0})
    result = run_simulation(cfg, write_outputs=False)
    assert result.sim.sender_clock.syncs[-1][1] == 3 * MS
    for rec in result.primary.records:
        if not rec.completed:
            continue
        assert rec.network_l_uncorrected_ns - rec.network_l_true_ns == 3 * MS
        assert rec.network_l_ns == rec.network_l_true_ns


@pytest.mark.parametrize("link, counts", [("hop2_r1", [0, 1]), ("hop1", [1, 1])],
                         ids=["hop2_r1", "hop1"])
def test_payload_check_catches_one_flipped_byte(small_cfg, monkeypatch, link, counts):
    # flip one byte of one segment reassembled on ``link``; the crc32 that a
    # final receiver renders must then disagree with the capture record's.
    # At receiver 1 of 2 only its summary counts it; at the relay's
    # upstream, which hashes nothing, the bad segment is forwarded to both
    flipped = flip_one_byte(monkeypatch, link)
    cfg = small_cfg(receivers=2, duration_s=0.2)
    result = run_simulation(cfg, write_outputs=True)
    assert flipped
    assert result.payload_mismatches == sum(counts)
    lines = [[line for line in open(os.path.join(cfg.out_dir, name))
              if line.startswith("payload_mismatches,")]
             for name in ("summary.csv", "summary_r1.csv")]
    assert lines == [[f"payload_mismatches,{n},,,,,,\n"] for n in counts]


def test_summary_counts_each_hops_drops_by_reason(small_cfg):
    # one NACK round at 20% loss gives up frames on both hops; every drop
    # is counted once, under its reason, on the hop whose receiver dropped it
    cfg = small_cfg(**{"hop1.loss_rate": 0.2, "hop2.loss_rate": 0.2,
                       "transport.max_nack_rounds": 1})
    result = run_simulation(cfg, write_outputs=False)
    sim, counts = result.sim, result.primary.summary.packet_counts
    for hop, ep in (("hop1", sim.relay_up), ("hop2", sim.receivers[0])):
        by_reason = {why: counts[f"{hop}_dropped_{why}"]
                     for why in ("deadline", "rounds_exhausted", "unfinished")}
        assert sum(by_reason.values()) == len(ep.dropped) > 0
        assert by_reason["rounds_exhausted"] > 0


def test_paper_run_holds_no_frame_sized_buffer(tmp_path):
    # 30 frames of 3.52 MB: the body is views of a 131 KB window and no layer
    # copies a whole frame; a frame-sized buffer alongside the run's own
    # allocations would pass the bound
    cfg = scenario_config("paper-default")
    cfg.duration_s = 1.0
    cfg.out_dir = str(tmp_path / "out")
    _synthetic_body.cache_clear()
    result = []
    assert traced_peak_bytes(lambda: result.append(run_simulation(cfg))) <= 3_000_000
    assert result[0].primary.summary.frames_completed == 30


def test_lossy_paper_run_retains_only_unacknowledged_frames(tmp_path):
    # 60 frames of 3.52 MB at 1% loss on both hops: every loss splits a
    # segment, whose joined copy the relay forwards and retains. Released
    # on each FRAME_ACK, the sender and relay hold a frame or two; a window
    # of 8 acknowledged frames kept alive would exceed the bound
    cfg = scenario_config("paper-default")
    cfg.duration_s = 2.0
    cfg.hop1.loss_rate = cfg.hop2.loss_rate = 0.01
    cfg.out_dir = str(tmp_path / "out")
    _synthetic_body.cache_clear()
    result = []
    assert traced_peak_bytes(lambda: result.append(run_simulation(cfg))) <= 7_000_000
    assert result[0].primary.summary.frames_completed == 59   # one exhausts its rounds


def test_acknowledged_frames_leave_every_sender(small_cfg):
    # every frame completes on both hops, so every FRAME_ACK reaches its
    # sender and no sender retains a burst at the end of the run
    result = run_simulation(small_cfg(**{"receivers": 2, "hop1.loss_rate": 0.05}),
                            write_outputs=False)
    sim = result.sim
    assert all(rr.summary.frames_completed == 30 for rr in result.receivers)
    assert sim.sender.frames_acked == 30
    assert [len(s._retained) for s in (sim.sender, *sim.relay_down)] == [0, 0, 0]
