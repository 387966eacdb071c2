import os
import subprocess
import sys
from pathlib import Path

import pytest

from volstream.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from volstream.config import render_config

from conftest import flip_one_byte, make_small_config


def _write_cfg(tmp_path, **overrides):
    cfg = make_small_config(out_dir=str(tmp_path / "out"), **overrides)
    path = tmp_path / "scenario.cfg"
    path.write_text(render_config(cfg))
    return str(path)


def test_validate_canned_scenarios(capsys):
    assert main(["validate", "--scenario", "paper-default"]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_run_config_file(tmp_path, capsys):
    path = _write_cfg(tmp_path, **{"duration_s": 0.3})
    assert main(["run", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "service_l" in out
    assert os.path.exists(tmp_path / "out" / "frames.csv")
    assert os.path.exists(tmp_path / "out" / "summary.csv")


def test_zero_duration_exits_2(tmp_path, capsys):
    cfg = make_small_config(out_dir=str(tmp_path / "out"))
    cfg.duration_s = 0.0
    path = tmp_path / "bad.cfg"
    path.write_text(render_config(cfg))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "duration_s" in capsys.readouterr().err


def test_duration_shorter_than_one_frame_exits_2(tmp_path, capsys):
    # 20 ms at 30 fps holds no frame: a config error, not a socket run whose
    # roles wait for a last frame that never comes
    cfg = make_small_config(out_dir=str(tmp_path / "out"), **{"capture.fps": 30,
                                                              "mode": "socket"})
    cfg.duration_s = 0.02
    path = tmp_path / "short.cfg"
    path.write_text(render_config(cfg))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert main(["run", "--config", str(path), "--quiet"]) == EXIT_CONFIG
    assert "duration_s" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_zero_tail_timeout_with_nack_rounds_exits_2(tmp_path, capsys):
    cfg = make_small_config(out_dir=str(tmp_path / "out"))
    cfg.transport.tail_timeout_ms = 0.0
    path = tmp_path / "bad.cfg"
    path.write_text(render_config(cfg))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "transport.tail_timeout_ms" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"segment_payload_size": 40, "hop1.loss_rate": 0.01}, "segment_payload_size"),
    ({"segment_payload_size": 3_520_000, "transport.packet_payload_size": 40},
     "transport.packet_payload_size"),
], ids=["segments", "packets"])
def test_counts_past_the_u16_header_fields_exit_2(tmp_path, capsys, overrides, key):
    # paper-size frames: 88,000 segments or packets, which segment_index and
    # packet_seq (u16) cannot number
    path = tmp_path / "bad.cfg"
    path.write_text("duration_s=0.1\n" + "".join(f"{k}={v}\n" for k, v in overrides.items()))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("scenario, key, value", [
    ("bandwidth-sweep", "sweep.duration_s", "0.01"),
    ("paper-default", "transport.tail_timeout_ms", "1e-7"),
    ("paper-default", "clock.sync_interval_s", "1e-10"),
], ids=["sweep-without-a-frame", "tail-timer-of-0-ns", "sync-interval-of-0-ns"])
def test_validate_judges_the_values_a_run_uses(tmp_path, monkeypatch, capsys, scenario,
                                               key, value):
    # 10 ms at 30 fps captures no frame at any sweep rate; 1e-7 ms and 1e-10 s
    # are 0 ns once the run converts them: validate and run both exit 2
    monkeypatch.setenv("VOLSTREAM_" + key.upper().replace(".", "_"), value)
    assert main(["validate", "--scenario", scenario]) == EXIT_CONFIG
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["socket.setup_wait_s", "socket.drain_timeout_s"])
def test_negative_socket_timing_exits_2(monkeypatch, capsys, key):
    # a socket run sleeps for setup_wait_s and waits drain_timeout_s for
    # stragglers; time.sleep refuses a negative length
    monkeypatch.setenv("VOLSTREAM_MODE", "socket")
    monkeypatch.setenv("VOLSTREAM_" + key.upper().replace(".", "_"), "-1")
    assert main(["validate", "--scenario", "paper-default"]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_run_experiment_refuses_an_invalid_config_before_writing(tmp_path):
    from volstream.errors import ConfigError
    from volstream.runner import run_experiment
    cfg = make_small_config(out_dir=str(tmp_path / "out"))
    cfg.hop1.loss_rate = 1.5
    cfg.relay.policy = "nope"
    with pytest.raises(ConfigError, match="hop1.loss_rate") as exc:
        run_experiment(cfg)
    assert "relay.policy" in str(exc.value)       # every diagnostic, in one error
    assert not os.path.exists(cfg.out_dir)


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("definitely.not.a.key=1\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "unknown" in capsys.readouterr().err


def test_max_frame_bytes_is_an_unknown_key(tmp_path, capsys):
    # frames are built from capture.*, and the u16 segment count bounds
    # their size: a frame-size cap could only make a run fail
    path = tmp_path / "old.cfg"
    path.write_text("transport.max_frame_bytes=64000000\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "transport.max_frame_bytes" in capsys.readouterr().err


def test_retain_payloads_is_an_unknown_key(tmp_path, capsys):
    # a final receiver hands each completed frame to on_frame; nothing in a
    # run wrote the frames that retaining held in memory
    path = tmp_path / "old.cfg"
    path.write_text("retain_payloads=true\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "retain_payloads" in capsys.readouterr().err


def test_inline_comment_exits_2(tmp_path, capsys):
    # the comment would otherwise become part of the trace file's name
    path = tmp_path / "comment.cfg"
    path.write_text("trace.file=t.csv   # per-packet trace\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "trace.file" in err and "whole line" in err


def test_out_dir_config_txt_cannot_hold_exits_2(tmp_path, monkeypatch, capsys):
    # config.txt would reload the # as a diagnostic, and a socket run's roles
    # load config.txt: the run is refused before it writes anything
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", "paper-default", "--out", "x#1", "--quiet"]) == EXIT_CONFIG
    assert "out_dir" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key", [
    "hop1.propagation_us_per_km", "hop2.propagation_us_per_km", "node.sender.load_factor",
    "node.relay.load_factor", "node.receiver.load_factor", "clock.sync_enabled",
    "verify_payload"])
def test_deleted_knobs_are_unknown_keys(tmp_path, capsys, key):
    # propagation is a fixed 5 us per km of distance_km, a node's receive
    # cost is its rx_sw_us and rx_hw_us, and every run syncs its clocks and
    # checks its payloads
    path = tmp_path / "old.cfg"
    path.write_text(f"{key}=1\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_receiver_ports_past_65535_exit_2(monkeypatch, capsys):
    # receiver r binds socket.base_port + 10 + r: receiver 599 of 600 at
    # base port 65,000 would bind 65,609, which bind() refuses
    monkeypatch.setenv("VOLSTREAM_MODE", "socket")
    monkeypatch.setenv("VOLSTREAM_SOCKET_BASE_PORT", "65000")
    monkeypatch.setenv("VOLSTREAM_RECEIVERS", "600")
    assert main(["validate", "--scenario", "paper-default"]) == EXIT_CONFIG
    assert "receivers=600" in capsys.readouterr().err
    monkeypatch.setenv("VOLSTREAM_RECEIVERS", "526")     # the last port is 65,535
    assert main(["validate", "--scenario", "paper-default"]) == EXIT_OK
    monkeypatch.setenv("VOLSTREAM_RECEIVERS", "527")
    assert main(["validate", "--scenario", "paper-default"]) == EXIT_CONFIG
    monkeypatch.setenv("VOLSTREAM_MODE", "sim")          # the sim binds no port
    monkeypatch.setenv("VOLSTREAM_RECEIVERS", "600")
    assert main(["validate", "--scenario", "paper-default"]) == EXIT_OK


@pytest.mark.parametrize("index", [-1, 1, 7])
def test_receiver_role_index_outside_the_receivers_exits_2(tmp_path, monkeypatch, capsys,
                                                           index):
    # a receiver role with no such receiver binds a port no relay sends
    # to: a config error before any role runs or anything is written
    from volstream import sockets
    calls = []
    monkeypatch.setattr(sockets, "run_role", lambda *args: calls.append(args))
    path = _write_cfg(tmp_path, mode="socket", duration_s=0.2)
    out = tmp_path / "role_out"
    assert main(["run", "--config", path, "--role", "receiver", "--role-index", str(index),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and f"index {index}" in err
    assert calls == [] and not out.exists()
    assert main(["run", "--config", path, "--role", "receiver", "--role-index", "0",
                 "--out", str(out)]) == EXIT_OK
    assert len(calls) == 1


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG


def test_unwritable_output_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    path = _write_cfg(tmp_path, **{"duration_s": 0.2})
    assert main(["run", "--config", path, "--out",
                 str(blocker / "nested"), "--quiet"]) == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def test_seed_and_out_overrides(tmp_path):
    path = _write_cfg(tmp_path, **{"duration_s": 0.2})
    out2 = str(tmp_path / "elsewhere")
    assert main(["run", "--config", path, "--seed", "42", "--out", out2,
                 "--quiet"]) == EXIT_OK
    dumped = open(os.path.join(out2, "config.txt")).read()
    assert "seed=42" in dumped


def test_env_override(tmp_path, monkeypatch):
    path = _write_cfg(tmp_path, **{"duration_s": 0.2})
    monkeypatch.setenv("VOLSTREAM_SEED", "1234")
    out = str(tmp_path / "env_out")
    assert main(["run", "--config", path, "--out", out, "--quiet"]) == EXIT_OK
    assert "seed=1234" in open(os.path.join(out, "config.txt")).read()


def test_env_override_bad_value_exits_2(tmp_path, monkeypatch, capsys):
    path = _write_cfg(tmp_path)
    monkeypatch.setenv("VOLSTREAM_HOP1_LOSS_RATE", "2.0")
    assert main(["run", "--config", path]) == EXIT_CONFIG
    assert "hop1.loss_rate" in capsys.readouterr().err


@pytest.mark.parametrize("rates", ["", "1000000000,2000000000"], ids=["none", "two"])
def test_hop1_needs_exactly_one_pacing_rate(tmp_path, monkeypatch, capsys, rates):
    # hop 1 has one sender: no rate, or rates it would ignore, is a config error
    path = _write_cfg(tmp_path, **{"duration_s": 0.2})
    monkeypatch.setenv("VOLSTREAM_HOP1_PACING_BPS", rates)
    assert main(["validate", "--config", path]) == EXIT_CONFIG
    assert main(["run", "--config", path, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "hop1.pacing_bps" in err and "Traceback" not in err


def test_probe_scenario_runs(tmp_path, capsys):
    assert main(["run", "--scenario", "paper-probe",
                 "--out", str(tmp_path / "probe")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "serialization" in out
    assert os.path.exists(tmp_path / "probe" / "probe.csv")


@pytest.mark.parametrize("scenario", ["paper-default", "paper-probe", "bandwidth-sweep"])
def test_out_dir_under_a_regular_file_exits_1(tmp_path, capsys, scenario):
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "out")
    assert main(["run", "--scenario", scenario, "--out", out, "--quiet"]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("runtime error: cannot write config.txt under " + out + ": ")


def test_rerun_same_seed_same_csv_via_cli(tmp_path):
    path = _write_cfg(tmp_path, **{"duration_s": 0.2})
    a, b = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["run", "--config", path, "--out", a, "--quiet"]) == EXIT_OK
    assert main(["run", "--config", path, "--out", b, "--quiet"]) == EXIT_OK
    assert open(os.path.join(a, "frames.csv"), "rb").read() == \
        open(os.path.join(b, "frames.csv"), "rb").read()


@pytest.mark.parametrize("loss,deadline,code", [("0", "66.6", EXIT_OK),
                                                 ("0.01", "5", EXIT_RUNTIME)],
                         ids=["clean", "lossy"])
def test_stream_that_completes_no_frame_exits_1(tmp_path, monkeypatch, capsys, loss,
                                                deadline, code):
    # at paper scale a 5 ms deadline is shorter than a frame's 14 ms send
    # span, so every frame is dropped: the report is written, and a run with
    # 0 completed frames fails
    for key, value in (("DURATION_S", "1"), ("HOP1_LOSS_RATE", loss),
                       ("HOP2_LOSS_RATE", loss), ("TRANSPORT_DEADLINE_MS", deadline)):
        monkeypatch.setenv(f"VOLSTREAM_{key}", value)
    out = tmp_path / "out"
    assert main(["run", "--scenario", "paper-default", "--out", str(out), "--quiet"]) == code
    assert (out / "summary.csv").exists()
    err = capsys.readouterr().err
    assert ("runtime error: receiver 0 completed 0 of 30 frames" in err) == (code != EXIT_OK)


def test_sweep_rate_that_completes_no_frame_exits_1(tmp_path, monkeypatch, capsys):
    # at 100 Mbps a 3.52 MB frame outlasts its deadline: that rate's row is
    # written with empty means, the other rates as usual, and the run fails
    for key, value in (("EXPERIMENT", "sweep"), ("SWEEP_RATES_BPS", "100000000,1000000000"),
                       ("SWEEP_DURATION_S", "0.2")):
        monkeypatch.setenv(f"VOLSTREAM_{key}", value)
    out = tmp_path / "out"
    assert main(["run", "--scenario", "paper-default", "--out", str(out)]) == EXIT_RUNTIME
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1] == "100000000,0,,281.600000,"
    assert rows[2].startswith("1000000000,6,") and ",," not in rows[2]
    assert (out / "frames_100000000.csv").exists()
    captured = capsys.readouterr()
    assert "281.600" in captured.out
    assert "runtime error: sweep rate 100000000 bps completed 0 of 6 frames" in captured.err
    assert "1000000000 bps" not in captured.err and "Traceback" not in captured.err


def test_run_whose_payload_check_fails_exits_1(tmp_path, monkeypatch, capsys):
    # one byte flipped at receiver 1 of 2: every report is written, and the
    # run is not valid
    flipped = flip_one_byte(monkeypatch, "hop2_r1")
    path = _write_cfg(tmp_path, receivers=2, duration_s=0.2)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == EXIT_RUNTIME
    assert flipped
    assert (out / "summary.csv").exists() and (out / "summary_r1.csv").exists()
    err = capsys.readouterr().err
    assert "runtime error: receiver 1 failed the payload check: payload_mismatches=1" in err
    assert "receiver 0" not in err


def test_trace_outside_a_sim_stream_exits_2(tmp_path, monkeypatch, capsys):
    # a sweep writes no trace.csv, and collecting one would force every
    # burst onto the per-packet path: the run is refused before it writes
    monkeypatch.setenv("VOLSTREAM_TRACE_ENABLED", "true")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", "bandwidth-sweep", "--out", "out"]) == EXIT_CONFIG
    assert "trace.enabled" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_run_survives_a_failed_resync(tmp_path, monkeypatch, capsys):
    # 18 exchanges at 30% loss per leg: at seed 2 every node's first
    # exchange succeeds and the sender's fourth, at 1.5 s, exhausts its 3
    # attempts; the run keeps the sender's last estimate instead of aborting
    # (at seed 1 receiver 1's first exchange fails, which still ends a run)
    for key, value in (("SEED", "2"), ("DURATION_S", "3"), ("RECEIVERS", "2"),
                       ("CLOCK_SYNC_INTERVAL_S", "0.5"), ("CLOCK_SYNC_LOSS_RATE", "0.3")):
        monkeypatch.setenv(f"VOLSTREAM_{key}", value)
    out = tmp_path / "out"
    assert main(["run", "--scenario", "paper-default", "--out", str(out), "--quiet"]) == EXIT_OK
    assert "runtime error" not in capsys.readouterr().err


def test_run_whose_first_sync_fails_exits_1(tmp_path, monkeypatch, capsys):
    # with every sync datagram lost no node ever gets an estimate: the
    # first exchange's SyncError still ends the run
    for key, value in (("DURATION_S", "0.1"), ("CLOCK_SYNC_LOSS_RATE", "1")):
        monkeypatch.setenv(f"VOLSTREAM_{key}", value)
    out = tmp_path / "out"
    assert main(["run", "--scenario", "paper-default", "--out", str(out), "--quiet"]) \
        == EXIT_RUNTIME
    assert "failed after 3 attempts" in capsys.readouterr().err


def test_sweep_reports_and_checks_every_receiver(tmp_path, monkeypatch, capsys):
    # with 2 receivers, each rate writes both receivers' reports, and the
    # run fails on every receiver that completes no frame at some rate
    for key, value in (("EXPERIMENT", "sweep"), ("SWEEP_RATES_BPS", "100000000,2000000000"),
                       ("SWEEP_DURATION_S", "0.2"), ("RECEIVERS", "2")):
        monkeypatch.setenv(f"VOLSTREAM_{key}", value)
    out = tmp_path / "out"
    assert main(["run", "--scenario", "paper-default", "--out", str(out),
                 "--quiet"]) == EXIT_RUNTIME
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["config.txt", "sweep.csv", "sweep_r1.csv"]
        + [f"{kind}_{rate}{r}.csv" for kind in ("frames", "summary")
           for rate in (100000000, 2000000000) for r in ("", "_r1")])
    err = capsys.readouterr().err
    assert "runtime error: sweep rate 100000000 bps completed 0 of 6 frames" in err
    assert "runtime error: sweep rate 100000000 bps receiver 1 completed 0 of 6 frames" in err
    assert "2000000000 bps" not in err


def test_sweep_csv_for_each_receiver(tmp_path, monkeypatch):
    # receiver 1's row per rate goes to sweep_r1.csv, read from its own
    # summary; sweep.csv keeps receiver 0's rows
    for key, value in (("SWEEP_RATES_BPS", "1000000000,10000000000"),
                       ("SWEEP_DURATION_S", "0.2"), ("RECEIVERS", "2")):
        monkeypatch.setenv(f"VOLSTREAM_{key}", value)
    out = tmp_path / "out"
    assert main(["run", "--scenario", "bandwidth-sweep", "--out", str(out),
                 "--quiet"]) == EXIT_OK
    for name, suffix in (("sweep.csv", ""), ("sweep_r1.csv", "_r1")):
        header, *rows = (out / name).read_text().splitlines()
        assert header.startswith("rate_bps,frames_completed,") and len(rows) == 2
        for row in rows:
            rate, completed, tx1, _, frame_rx = row.split(",")
            summary = dict(line.split(",")[:2] for line in
                           (out / f"summary_{rate}{suffix}.csv").read_text().splitlines())
            assert (completed, tx1, frame_rx) == (summary["frames_completed"],
                                                  summary["protocol_tx1"],
                                                  summary["frame_rx"])
    assert (out / "sweep.csv").read_text() != (out / "sweep_r1.csv").read_text()


def test_role_without_socket_mode_exits_2(tmp_path, monkeypatch, capsys):
    # --role runs one socket role; with a sim config it is a config error,
    # not a whole sim run that exits 0
    monkeypatch.setenv("VOLSTREAM_DURATION_S", "0.2")
    out = tmp_path / "out"
    assert main(["run", "--scenario", "paper-default", "--role", "sender", "--quiet",
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "socket mode" in err and "Traceback" not in err
    assert not out.exists()


def test_run_experiment_runs_a_socket_config_through_the_orchestrator(tmp_path, monkeypatch):
    # mode=socket runs the socket orchestrator (stubbed: no socket is
    # opened) with the config.txt that run_experiment wrote, never the sim
    from volstream import sockets
    from volstream.runner import run_experiment
    calls = []

    def orchestrate(cfg, cfg_path):
        calls.append(open(cfg_path).read())
        return "socket result"

    monkeypatch.setattr(sockets, "run_socket_orchestrated", orchestrate)
    cfg = make_small_config(out_dir=str(tmp_path / "out"), mode="socket", duration_s=0.2)
    assert run_experiment(cfg) == "socket result"
    assert calls == [render_config(cfg)]
    assert sorted(os.listdir(cfg.out_dir)) == ["config.txt"]


def test_paper_script_honours_overrides_and_fails_when_a_stream_completes_nothing(tmp_path):
    # every hop-1 packet lost: the sweep and both streams complete no frame,
    # so the script exits 1 after running every scenario
    env = {**os.environ, "VOLSTREAM_HOP1_LOSS_RATE": "1", "VOLSTREAM_DURATION_S": "0.2",
           "VOLSTREAM_SWEEP_DURATION_S": "0.2"}
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_paper_experiments.py"
    proc = subprocess.run([sys.executable, str(script), "--out", str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_RUNTIME
    assert "completed 0 of" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "paper_probe" / "probe.csv").exists()
