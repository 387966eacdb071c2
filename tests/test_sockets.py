"""Tests of the real-socket mode.

The loopback smoke tests assert functional outcomes (delivery, identities,
report shape), not absolute latencies: timings on a shared CI host are
whatever they are. The merge and round-trip tests need no sockets: they
write a sim's node logs (``SimulationRun.logs``) with the roles' writer,
``_write_role_log``, and read them back as ``merge_socket_logs`` does.
"""

import csv
import dataclasses
import json
import os
from decimal import Decimal
from pathlib import Path

import pytest

from volstream.appemu import AppRxRecord, AppTxRecord
from volstream.clock import NodeClock
from volstream.config import apply_overrides, load_config_file, render_config, validate
from volstream.metrics import ReceiverLog, RelayLog, SenderLog
from volstream.pipeline import run_simulation
from volstream.runner import run_experiment
from volstream.scenarios import scenario_config
from volstream.sockets import _read_role_log, _write_role_log, merge_socket_logs
from volstream.transport import RecvLogEntry, SendLogEntry

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
    results = run_experiment(cfg).receivers
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
    # the summary has every counter row the sim's has, with the same meaning
    counts = _summary_counts(os.path.join(cfg.out_dir, "summary.csv"))
    sim_cfg = _socket_cfg(tmp_path, base_port=47410, mode="sim")
    sim_summary = run_simulation(sim_cfg, write_outputs=False).primary.summary
    assert set(counts) == {"frames_sent", "frames_completed", "frames_dropped",
                           *sim_summary.packet_counts}
    for hop in ("hop1", "hop2"):
        assert int(counts[f"{hop}_lost"]) == \
            int(counts[f"{hop}_sent"]) - int(counts[f"{hop}_delivered"])
    assert counts["payload_mismatches"] == "0"
    for role in ("sender", "relay", "receiver0"):
        assert os.path.exists(os.path.join(cfg.out_dir, f"{role}_log.json"))
    # the report ships its full key list, which loads back as it was run
    loaded, diags = load_config_file(os.path.join(cfg.out_dir, "config.txt"))
    assert diags == [] and render_config(loaded) == render_config(cfg)


def test_socket_mode_via_cli(tmp_path, capsys):
    from volstream.cli import EXIT_OK, main
    cfg = _socket_cfg(tmp_path, base_port=47610, **{"duration_s": 0.6})
    path = tmp_path / "sock.cfg"
    path.write_text(render_config(cfg))
    assert main(["run", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ignored" in out          # link models do not apply on sockets
    assert "service_l" in out


def test_loopback_two_receivers(tmp_path):
    cfg = _socket_cfg(tmp_path, base_port=47520, receivers=2,
                      **{"duration_s": 0.8, "clock.sync_interval_s": 0.3})
    results = run_experiment(cfg).receivers
    assert len(results) == 2
    for r, (_records, summary) in enumerate(results):
        assert summary.frames_completed >= cfg.frame_count() - 2, r
    assert os.path.exists(os.path.join(cfg.out_dir, "frames_r1.csv"))
    # every role but receiver 0, the master, syncs at 0, 0.3 and 0.6 s
    for role, exchanges in (("sender", 3), ("relay", 3), ("receiver1", 3), ("receiver0", 0)):
        with open(os.path.join(cfg.out_dir, f"{role}_log.json")) as fh:
            assert len(json.load(fh)["clock"]["syncs"]) == exchanges, role


# -- record assembly from role logs, without sockets ---------------------------------


def _merge_sim_run(tmp_path, overrides, tamper=None):
    """Run a 1 s ``paper-default`` sim, write its role logs as the socket roles
    do, let ``tamper(out_dir)`` edit them, and merge them; returns the sim's
    and the merged report directories and the merged reports."""
    cfg = scenario_config("paper-default")
    sim_dir, merged_dir = tmp_path / "sim", tmp_path / "merged"
    assert apply_overrides(cfg, {"duration_s": "1", "out_dir": str(sim_dir),
                                 **overrides}) == []
    logs = run_simulation(cfg).sim.logs
    out = str(merged_dir)
    _write_role_log(out, "sender", logs.sender)
    _write_role_log(out, "relay", logs.relay)
    for r, log in enumerate(logs.receivers):
        _write_role_log(out, f"receiver{r}", log)
    if tamper is not None:
        tamper(out)
    cfg.out_dir = out
    return sim_dir, merged_dir, merge_socket_logs(cfg).receivers


def _summary_counts(path):
    """The counter rows of a summary CSV: a name, a value, six empty cells."""
    with open(path) as fh:
        return {row[0]: row[1] for row in csv.reader(fh) if row[2:] == [""] * 6}


@pytest.mark.parametrize("overrides", [
    {},
    {"receivers": "3", "hop1.loss_rate": "0.001", "hop2.loss_rate": "0.001",
     "clock.sender_offset_ms": "3.5", "clock.relay_offset_ms": "-1.25",
     "clock.drift_ppm": "20"},
    {"relay.policy": "store_forward", "stall.probability": "0.3", "stall.max_ms": "5",
     "receivers": "2"},
], ids=["paper-default", "3rx-lossy-skewed", "store-forward-stalls-2rx"])
def test_merged_role_logs_reproduce_sim_frames_csvs(tmp_path, overrides):
    # socket mode builds its records and summary counters from role logs
    # through the same function as the sim: merging a sim's logs must give
    # the sim's report, frames and summary alike
    sim_dir, merged_dir, merged = _merge_sim_run(tmp_path, overrides)
    receivers = int(overrides.get("receivers", 1))
    assert len(merged) == receivers
    assert any(rec.completed for records, _ in merged for rec in records)
    names = sorted(p.name for p in sim_dir.glob("*.csv"))
    assert len(names) == 2 * receivers
    assert sorted(p.name for p in merged_dir.glob("*.csv")) == names
    for name in names:
        assert (merged_dir / name).read_bytes() == (sim_dir / name).read_bytes(), name


def test_merged_report_counts_each_receivers_own_mismatches_and_anomalies(tmp_path):
    # receiver 0's role log has a clock offset far off, and receiver 1's
    # has frame 3 rendered with a failed payload check and an intact frame
    # 99 that the sender never captured: each summary counts only its own
    # receiver's faults
    def tamper(out):
        paths = [Path(out) / f"receiver{r}_log.json" for r in (0, 1)]
        logs = [json.loads(path.read_text()) for path in paths]
        logs[0]["clock"]["syncs"] = [[0, -1_000_000_000]]
        assert logs[1]["app_rx"]["3"]["payload_intact"] is True
        logs[1]["app_rx"]["99"] = dict(logs[1]["app_rx"]["3"], frame_id=99)
        logs[1]["app_rx"]["3"]["payload_intact"] = False
        for path, log in zip(paths, logs):
            path.write_text(json.dumps(log))

    _, merged_dir, merged = _merge_sim_run(tmp_path, {"receivers": "2"}, tamper)
    first = _summary_counts(merged_dir / "summary.csv")
    second = _summary_counts(merged_dir / "summary_r1.csv")
    assert first["payload_mismatches"] == "0" and int(first["clock_anomalies"]) > 0
    assert second["payload_mismatches"] == "2" and second["clock_anomalies"] == "0"
    assert [summary.packet_counts["payload_mismatches"] for _, summary in merged] == [0, 2]


# The entry class of each frame_id-keyed log of a node's record.
_ENTRY_CLASSES = {"app_tx": AppTxRecord, "send_log": SendLogEntry, "send_logs": SendLogEntry,
                  "recv_log": RecvLogEntry, "dropped": RecvLogEntry, "app_rx": AppRxRecord}


def test_node_logs_round_trip_through_json(tmp_path):
    # write -> read -> write gives the same bytes for every node kind, and
    # the read record holds the written clock, counters and typed entries
    cfg = make_small_config(receivers=2, **{"duration_s": 0.5, "clock.sync_interval_s": 0.2,
                                            "clock.sender_offset_ms": 1.5,
                                            "clock.drift_ppm": 20})
    logs = run_simulation(cfg, write_outputs=False).sim.logs
    logs.relay.dropped[90] = RecvLogEntry(90, 5, 9, -3, packets_received=2,
                                          drop_reason="deadline")
    logs.receivers[1].dropped[91] = RecvLogEntry(91, 7, 8, 6, nack_count=3,
                                                 drop_reason="rounds_exhausted")
    assert len(logs.relay.send_logs) == 2
    assert logs.sender.clock.syncs and logs.relay.clock.syncs
    nodes = [("sender", logs.sender, SenderLog), ("relay", logs.relay, RelayLog),
             *((f"receiver{r}", log, ReceiverLog) for r, log in enumerate(logs.receivers))]
    for role, log, cls in nodes:
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        _write_role_log(first, role, log)
        loaded = _read_role_log(first, role, cls)
        _write_role_log(second, role, loaded)
        name = f"{role}_log.json"
        assert (tmp_path / "second" / name).read_bytes() == \
            (tmp_path / "first" / name).read_bytes(), role
        assert type(loaded) is cls and type(loaded.clock) is NodeClock
        assert dataclasses.asdict(loaded.clock) == json.loads(json.dumps(
            dataclasses.asdict(log.clock)))
        assert loaded.counters == log.counters
        for field in dataclasses.fields(cls):
            entry = _ENTRY_CLASSES.get(field.name)
            if entry is None:
                continue
            got, sent = getattr(loaded, field.name), getattr(log, field.name)
            tables = zip(got, sent) if isinstance(got, list) else [(got, sent)]
            for got_table, sent_table in tables:
                assert got_table == sent_table, (role, field.name)
                assert all(type(k) is int and type(v) is entry
                           for k, v in got_table.items()), (role, field.name)
