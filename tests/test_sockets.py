"""Tests of the real-socket mode.

The loopback smoke tests assert functional outcomes (delivery, identities,
report shape), not absolute latencies: timings on a shared CI host are
whatever they are. The merge test needs no sockets: it feeds a sim's logs
through the role-log format into ``merge_socket_logs``.
"""

import csv
import os
from decimal import Decimal

import pytest

from volstream.config import apply_overrides, validate
from volstream.pipeline import run_simulation
from volstream.scenarios import scenario_config
from volstream.sockets import (_dump_map, _write_role_log, merge_socket_logs,
                               run_socket_orchestrated)

from conftest import make_small_config


def _socket_cfg(tmp_path, base_port, **extra):
    cfg = make_small_config(out_dir=str(tmp_path / "out"), **{
        "mode": "socket",
        "duration_s": 1.0,
        "capture.fps": 10,
        "capture.app_tx_ms": 2.0,
        "render.app_rx_ms": 3.0,
        "capture.color_bytes": 20_000,
        "capture.depth_bytes": 8_000,
        "capture.audio_bytes": 2_000,
        "segment_payload_size": 8_000,
        "hop1.pacing_bps": [30_000_000],
        "hop2.pacing_bps": [30_000_000],
        "transport.deadline_ms": 500.0,
        "socket.base_port": base_port,
        **extra,
    })
    assert validate(cfg) == []
    return cfg


def test_loopback_stream_end_to_end(tmp_path):
    # role processes carry internal hard deadlines, so this cannot hang
    cfg = _socket_cfg(tmp_path, base_port=47410)
    results = run_socket_orchestrated(cfg)
    assert len(results) == 1
    _records, summary = results[0]
    assert summary.frames_completed > 0
    frames_path = os.path.join(cfg.out_dir, "frames.csv")
    assert os.path.exists(frames_path)
    rows = list(csv.DictReader(open(frames_path)))
    assert len(rows) == cfg.frame_count()
    done = [r for r in rows if r["completed"] == "1"]
    assert len(done) >= cfg.frame_count() - 2    # shared-host slack
    for row in done:
        assert Decimal(row["service_l_ms"]) == (Decimal(row["app_tx_ms"])
                                                + Decimal(row["frame_l_ms"])
                                                + Decimal(row["app_rx_ms"]))
        assert Decimal(row["frame_l_ms"]) == (Decimal(row["network_l_ms"])
                                              + Decimal(row["frame_rx_ms"]))
        assert Decimal(row["frame_rx_ms"]) >= 0
    assert os.path.exists(os.path.join(cfg.out_dir, "summary.csv"))
    for role in ("sender", "relay", "receiver0"):
        assert os.path.exists(os.path.join(cfg.out_dir, f"{role}_log.json"))


def test_socket_mode_via_cli(tmp_path, capsys):
    from volstream.cli import EXIT_OK, main
    from volstream.config import render_config
    cfg = _socket_cfg(tmp_path, base_port=47610, **{"duration_s": 0.6})
    path = tmp_path / "sock.cfg"
    path.write_text(render_config(cfg))
    assert main(["run", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ignored" in out          # link models do not apply on sockets
    assert "service_l" in out


def test_loopback_two_receivers(tmp_path):
    cfg = _socket_cfg(tmp_path, base_port=47520, receivers=2,
                      **{"duration_s": 0.8})
    results = run_socket_orchestrated(cfg)
    assert len(results) == 2
    for r, (_records, summary) in enumerate(results):
        assert summary.frames_completed >= cfg.frame_count() - 2, r
    assert os.path.exists(os.path.join(cfg.out_dir, "frames_r1.csv"))


# -- record assembly from role logs, without sockets ---------------------------------


def _write_sim_role_logs(sim, out_dir):
    """Write a finished sim's endpoint logs in the socket roles' layout."""
    _write_role_log(out_dir, "sender", {
        "offset_ns": sim.sender_clock.estimated_offset_ns,
        "send_log": _dump_map(sim.sender.send_log),
        "app_tx": _dump_map(sim.app_tx_records),
        "counters": {"packets_sent": sim.sender.packets_sent,
                     "packets_retransmitted": sim.sender.packets_retransmitted},
    })
    _write_role_log(out_dir, "relay", {
        "offset_ns": sim.relay_clock.estimated_offset_ns,
        "recv_log": _dump_map(sim.relay_up.recv_log),
        "dist_log": _dump_map(sim.relay.dist_log),
        "send_logs": [_dump_map(ep.send_log) for ep in sim.relay_down],
        "counters": {"backpressure_events": sim.relay.backpressure_events,
                     "stalled_frames": sim.relay.stalled_frames},
    })
    for r, ep in enumerate(sim.receivers):
        _write_role_log(out_dir, f"receiver{r}", {
            "offset_ns": sim.receiver_clocks[r].estimated_offset_ns,
            "recv_log": _dump_map(ep.recv_log),
            "app_rx": _dump_map(sim.app_rx_records[r]),
            "counters": {"duplicates": ep.duplicates, "late_packets": ep.late_packets},
        })


@pytest.mark.parametrize("overrides", [
    {},
    {"receivers": "3", "hop1.loss_rate": "0.001", "hop2.loss_rate": "0.001",
     "clock.sender_offset_ms": "3.5", "clock.relay_offset_ms": "-1.25",
     "clock.drift_ppm": "20"},
    {"relay.policy": "store_forward", "stall.probability": "0.3", "stall.max_ms": "5",
     "receivers": "2"},
], ids=["paper-default", "3rx-lossy-skewed", "store-forward-stalls-2rx"])
def test_merged_role_logs_reproduce_sim_frames_csvs(tmp_path, overrides):
    # socket mode assembles its records from role logs through the same
    # function as the sim: merging a sim's logs must give the sim's report
    cfg = scenario_config("paper-default")
    sim_dir, merged_dir = tmp_path / "sim", tmp_path / "merged"
    assert apply_overrides(cfg, {"duration_s": "1", "out_dir": str(sim_dir),
                                 **overrides}) == []
    result = run_simulation(cfg)
    cfg.out_dir = str(merged_dir)
    _write_sim_role_logs(result.sim, cfg.out_dir)
    merged = merge_socket_logs(cfg)
    assert len(merged) == cfg.receivers
    assert any(rec.completed for records, _ in merged for rec in records)
    names = sorted(p.name for p in sim_dir.glob("frames*.csv"))
    assert len(names) == cfg.receivers
    assert sorted(p.name for p in merged_dir.glob("frames*.csv")) == names
    for name in names:
        assert (merged_dir / name).read_bytes() == (sim_dir / name).read_bytes(), name
