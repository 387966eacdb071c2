"""Acceptance suite: one test per release criterion, in order.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are fixed here, straight from the criteria.
"""

import hashlib
import os
import time
from decimal import Decimal

import pytest

from volstream.frames import make_synthetic_frame, required_bandwidth_bps
from volstream.netem import NodeStageModel, run_probe_experiment
from volstream.pipeline import SimulationRun, run_simulation
from volstream.runner import run_probe, run_sweep
from volstream.scenarios import scenario_config

from conftest import collect_frames, make_small_config

MS = 1_000_000


def _report(num, text):
    print(f"\n[criterion {num}] PASS - {text}")


@pytest.fixture(scope="module")
def paper_default_run(tmp_path_factory):
    cfg = scenario_config("paper-default")
    cfg.out_dir = str(tmp_path_factory.mktemp("paper_default"))
    t0 = time.perf_counter()
    result = run_simulation(cfg, write_outputs=True)
    elapsed = time.perf_counter() - t0
    return cfg, result, elapsed


def test_criterion_1_bandwidth_identity():
    bw = required_bandwidth_bps(3_520_000, 30)
    assert abs(bw - 844_800_000) <= 0.001 * 844_800_000
    _report(1, f"required bandwidth {bw / 1e6:.1f} Mbps (844.8 expected, 0.1%)")


def test_criterion_2_serialization_scaling(tmp_path):
    cfg = scenario_config("bandwidth-sweep")
    cfg.out_dir = str(tmp_path / "sweep")
    t0 = time.perf_counter()
    sweep = run_sweep(cfg, write_outputs=True)
    elapsed = time.perf_counter() - t0
    expect = {1_000_000_000: 28_160_000, 10_000_000_000: 2_816_000}
    seen = {}
    for rate, result in zip(cfg.sweep.rates_bps, sweep.results):
        if rate not in expect:
            continue
        records = [r for r in result.primary.records if r.completed]
        assert records
        for rec in records:
            assert rec.protocol_tx1_ns == expect[rate]   # exact in virtual clock
        seen[rate] = records[0].protocol_tx1_ns
    assert set(seen) == set(expect)
    assert elapsed < 60
    _report(2, f"send span exactly {seen[10**9] / MS:.3f} ms at 1 Gbps and "
               f"{seen[10**10] / MS:.3f} ms at 10 Gbps")


def test_criterion_3_latency_decomposition(paper_default_run):
    cfg, result, elapsed = paper_default_run
    summary = result.primary.summary
    assert summary.frames_sent == 300
    assert summary.frames_completed == 300
    service = summary.stat("service_l").mean_ns
    frame_l = summary.stat("frame_l").mean_ns
    app_share = (summary.stat("app_tx").mean_ns + summary.stat("app_rx").mean_ns) / service
    assert abs(service - 50 * MS) <= 2 * MS
    assert abs(frame_l - 20_700_000) <= 1_500_000
    assert abs(app_share - 0.58) <= 0.02
    assert result.payload_mismatches == 0
    assert elapsed < 60
    _report(3, f"300 frames: service {service / MS:.2f} ms, frame {frame_l / MS:.2f} ms, "
               f"app share {app_share * 100:.1f}% ({elapsed:.1f}s)")


def test_criterion_4_protocol_spans(tmp_path):
    cfg = scenario_config("paper-protocol")
    cfg.out_dir = str(tmp_path / "protocol")
    t0 = time.perf_counter()
    result = run_simulation(cfg, write_outputs=True)
    elapsed = time.perf_counter() - t0
    summary = result.primary.summary
    assert summary.frames_completed == 300
    tx1 = summary.stat("protocol_tx1").mean_ns
    tx2 = summary.stat("protocol_tx2").mean_ns
    assert 14_080_000 <= tx1 <= 15_500_000
    assert 18_773_333 <= tx2 <= 19_800_000
    for rec in result.primary.records:
        assert 14_080_000 <= rec.protocol_tx1_ns <= 15_500_000
        assert 18_773_333 <= rec.protocol_tx2_ns <= 19_800_000
    assert elapsed < 60
    _report(4, f"hop-1 span {tx1 / MS:.2f} ms in [14.08, 15.5]; "
               f"hop-2 span {tx2 / MS:.2f} ms in [18.77, 19.8] ({elapsed:.1f}s)")


def test_criterion_5_metric_identities(tmp_path):
    import random
    checked_rows = 0
    for seed in range(10):
        rng = random.Random(f"acc5:{seed}")
        cfg = make_small_config(
            out_dir=str(tmp_path / f"s{seed}"), seed=seed,
            **{
                "duration_s": 0.4,
                "capture.fps": rng.choice([15, 30, 60]),
                "capture.color_bytes": rng.randrange(5_000, 60_000),
                "capture.depth_bytes": rng.randrange(0, 40_000),
                "capture.audio_bytes": rng.randrange(1, 5_000),
                "capture.app_tx_ms": rng.choice([2.0, 7.3]),
                "capture.app_tx_jitter_ms": rng.choice([0.0, 1.0]),
                "render.app_rx_ms": rng.choice([5.0, 22.0]),
                "render.app_rx_jitter_ms": rng.choice([0.0, 2.0]),
                "segment_payload_size": rng.randrange(1_000, 20_000),
                "transport.packet_payload_size": rng.randrange(400, 1_400),
                "transport.overhead_bits_per_packet": rng.choice([0, 428]),
                "transport.deadline_ms": 0.0,
                "transport.max_nack_rounds": 64,
                "hop1.loss_rate": rng.choice([0.0, 0.01]),
                "hop2.loss_rate": rng.choice([0.0, 0.01]),
                "relay.policy": rng.choice(["cut_through", "store_forward"]),
                "stall.probability": rng.choice([0.0, 0.3]),
                "stall.max_ms": 2.0,
                "clock.sender_offset_ms": rng.choice([0.0, 3.0, -2.0]),
                "clock.relay_offset_ms": rng.choice([0.0, 1.0]),
            })
        result = run_simulation(cfg, write_outputs=True)
        for rec in result.primary.records:
            rec.check_identities()      # exact at ns resolution
        with open(os.path.join(cfg.out_dir, "frames.csv")) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                cols = dict(zip(header, line.strip().split(",")))
                service = Decimal(cols["service_l_ms"])
                assert service == (Decimal(cols["app_tx_ms"])
                                   + Decimal(cols["frame_l_ms"])
                                   + Decimal(cols["app_rx_ms"]))
                assert Decimal(cols["frame_l_ms"]) == (
                    Decimal(cols["network_l_ms"]) + Decimal(cols["frame_rx_ms"]))
                assert Decimal(cols["protocol_l1_ms"]) == (
                    Decimal(cols["network_l1_ms"]) + Decimal(cols["protocol_rx1_ms"]))
                assert Decimal(cols["protocol_l2_ms"]) == (
                    Decimal(cols["network_l2_ms"]) + Decimal(cols["protocol_rx2_ms"]))
                checked_rows += 1
    assert checked_rows > 0
    _report(5, f"latency identities exact on {checked_rows} CSV rows over 10 scenarios")


def test_criterion_6_reliability_under_loss():
    t0 = time.perf_counter()
    rates = (0.001, 0.01, 0.05)
    mean_frame_rx = {}
    for loss in rates:
        spans = []
        for seed in range(20):
            cfg = make_small_config(
                out_dir="unused", seed=seed,
                **{"duration_s": 10.0, "capture.fps": 30,
                   "hop1.loss_rate": loss, "hop2.loss_rate": loss,
                   "transport.deadline_ms": 0.0,
                   "transport.max_nack_rounds": 256})
            sim = SimulationRun(cfg)
            payloads = collect_frames(sim.receivers[0])
            result = sim.run()
            summary = result.primary.summary
            assert summary.frames_sent == 300
            assert summary.frames_completed == 300, (loss, seed)
            assert len(payloads) == 300
            for fid, payload in payloads.items():
                expect = b"".join(make_synthetic_frame(fid, 12_000, 6_000, 2_000, seed).segments)
                assert payload == expect, (loss, seed, fid)
            spans.extend(r.frame_rx_ns for r in result.primary.records)
        mean_frame_rx[loss] = sum(spans) / len(spans)
    assert mean_frame_rx[0.001] <= mean_frame_rx[0.01] <= mean_frame_rx[0.05]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(6, "18000/18000 frames byte-identical over 20 seeds x 3 loss rates; "
               f"mean frame span {mean_frame_rx[0.001] / MS:.3f} <= "
               f"{mean_frame_rx[0.01] / MS:.3f} <= {mean_frame_rx[0.05] / MS:.3f} ms "
               f"({elapsed:.1f}s)")


def test_criterion_7_probe_experiment(tmp_path):
    cfg = scenario_config("paper-probe")
    cfg.out_dir = str(tmp_path / "probe")
    t0 = time.perf_counter()
    probe = run_probe(cfg, write_outputs=True)
    elapsed = time.perf_counter() - t0
    assert cfg.probe.sizes == [128, 512, 1024]
    assert cfg.probe.samples == 300
    for hop in ("hop1", "hop2"):
        totals = [r.stages["total"].mean_ns for r in probe.per_hop[hop]]
        assert totals[0] < totals[1] < totals[2]          # strictly increasing
        assert all(r.stages["total"].p99_ns < 50_000 for r in probe.per_hop[hop])
    # inflating the relay's receive-side kernel cost makes hop 1 slower than
    # hop 2 despite hop 2's 1 km fiber and extra switch
    loaded_relay = cfg.node_stages(cfg.node_relay)
    loaded_relay = NodeStageModel(tx_sw_ns=loaded_relay.tx_sw_ns,
                                  tx_hw_ns=loaded_relay.tx_hw_ns,
                                  rx_sw_ns=loaded_relay.rx_sw_ns * 10,
                                  rx_hw_ns=loaded_relay.rx_hw_ns)
    hop1_loaded = run_probe_experiment(
        cfg.link_model(cfg.hop1), cfg.node_stages(cfg.node_sender), loaded_relay,
        cfg.probe.sizes, cfg.probe.samples, f"{cfg.seed}:hop1")
    for loaded, base in zip(hop1_loaded, probe.per_hop["hop2"]):
        assert loaded.stages["total"].mean_ns > base.stages["total"].mean_ns
    assert elapsed < 60
    _report(7, "probe totals increase with size, stay under 50 us, and a loaded "
               "relay makes hop 1 slower than hop 2")


def test_criterion_8_clock_correction(tmp_path):
    cfg = make_small_config(out_dir=str(tmp_path / "clock"), **{
        "duration_s": 10.0, "capture.fps": 30,
        "clock.sender_offset_ms": 3.0,
        "trace.enabled": True})
    result = run_simulation(cfg, write_outputs=False)
    assert result.sim.sender_clock.syncs[-1][1] == 3 * MS  # symmetric paths: exact
    summary = result.primary.summary
    assert summary.frames_completed == 300
    for rec in result.primary.records:
        assert rec.network_l_uncorrected_ns - rec.network_l_true_ns == 3 * MS
        assert rec.network_l_ns == rec.network_l_true_ns
        assert rec.network_l1_uncorrected_ns - rec.network_l1_true_ns == 3 * MS
    # per packet: corrected one-way delay equals the simulated ground truth
    est = {"hop1": 3 * MS, "hop1_rev": -3 * MS}
    packets = 0
    for row in result.trace_rows:
        (time_ns, link, _f, _s, seq, status, *_rest, emission, stamp) = row
        if status != "delivered" or seq == 0:   # seq 0 marks control traffic
            continue
        offset = est.get(link, 0)
        corrected = time_ns - (stamp + offset)
        assert corrected == time_ns - emission             # exact ground truth
        packets += 1
    assert packets > 300 * 18 * 2 * 0.9
    _report(8, f"offset correction exact on every one of {packets} packets; "
               "uncorrected delay inflated by exactly 3 ms")


def test_criterion_9_determinism(paper_default_run, tmp_path):
    cfg0, _result, _elapsed = paper_default_run
    cfg = scenario_config("paper-default")
    cfg.out_dir = str(tmp_path / "replay")
    run_simulation(cfg, write_outputs=True)

    def digest(base, name):
        with open(os.path.join(base, name), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    for name in ("frames.csv", "summary.csv"):
        assert digest(cfg0.out_dir, name) == digest(cfg.out_dir, name)
    _report(9, "rerun of the same scenario and seed is byte-identical "
               "(frames.csv and summary.csv hashes match)")


@pytest.mark.parametrize("loss", [0.001, 0.01])
def test_criterion_10_nack_recovery_at_paper_scale(loss):
    # 3.52 MB frames of about 2,500 packets at 2 and 1.5 Gbps, default NACK
    # knobs, the same loss on both hops: at least 99% of frames complete and
    # retransmissions stay within 1.5x the packets lost, over both hops
    cfg = scenario_config("paper-default")
    cfg.duration_s = 1.0
    cfg.hop1.loss_rate = cfg.hop2.loss_rate = loss
    result = run_simulation(cfg, write_outputs=False)
    summary = result.primary.summary
    counts = summary.packet_counts
    lost = counts["hop1_lost"] + counts["hop2_lost"]
    retransmitted = counts["hop1_retransmitted"] + counts["hop2_retransmitted"]
    assert summary.frames_completed >= 0.99 * summary.frames_sent
    assert result.payload_mismatches == 0
    assert lost > 0 and retransmitted <= 1.5 * lost
    _report(10, f"{loss:.1%} loss: {summary.frames_completed}/{summary.frames_sent} "
                f"frames complete; {retransmitted} retransmitted for {lost} lost")
