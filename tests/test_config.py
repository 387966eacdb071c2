from pathlib import Path

import pytest

from volstream.clock import NodeClock
from volstream.config import (ScenarioConfig, TraceCfg, apply_overrides, env_overrides,
                              flat_items, flat_keys, load_config_file, parse_config_text,
                              render_config, validate)
from volstream.errors import ConfigError
from volstream.scenarios import CANNED, scenario_config, scenario_names


def test_defaults_are_valid():
    assert validate(ScenarioConfig()) == []


def test_loss_rate_out_of_range_names_constraint():
    cfg = ScenarioConfig()
    cfg.hop1.loss_rate = 1.5
    diags = validate(cfg)
    assert any(d.key == "hop1.loss_rate" and "[0, 1]" in d.constraint for d in diags)


def test_zero_pacing_names_the_hop():
    cfg = ScenarioConfig()
    cfg.hop2.pacing_bps = [0]
    diags = validate(cfg)
    assert any(d.key == "hop2.pacing_bps" for d in diags)


def test_zero_duration_is_invalid():
    cfg = ScenarioConfig()
    cfg.duration_s = 0.0
    assert any(d.key == "duration_s" for d in validate(cfg))


def test_zero_tail_timeout_needs_zero_nack_rounds():
    # only the tail timer asks again for a range: without it a lost NACK or
    # retransmission would never be asked for again
    cfg = ScenarioConfig()
    cfg.transport.tail_timeout_ms = 0.0
    assert [d.key for d in validate(cfg)] == ["transport.tail_timeout_ms"]
    cfg.transport.max_nack_rounds = 0
    assert validate(cfg) == []


def test_counts_past_the_u16_header_fields_are_invalid():
    # segment_index and packet_seq are u16: 40-byte segments or packets cut a
    # 3.52 MB frame into 88,000 of them
    cfg = ScenarioConfig()
    cfg.segment_payload_size = 40
    assert [d.key for d in validate(cfg)] == ["segment_payload_size"]
    cfg.segment_payload_size = 3_520_000
    cfg.transport.packet_payload_size = 40
    assert [d.key for d in validate(cfg)] == ["transport.packet_payload_size"]
    cfg.transport.packet_payload_size = 54
    assert validate(cfg) == []      # 65,186 packets


@pytest.mark.parametrize("overrides, key", [
    ({"hop1.bandwidth_bps": "0"}, "hop1.bandwidth_bps"),
    ({"hop1.distance_km": "-1"}, "hop1.distance_km"),
    ({"relay.queue_high_water_ms": "0"}, "relay.queue_high_water_ms"),
    ({"hop1.hop_delay_us_min": "11", "hop1.hop_delay_us_max": "10"},
     "hop1.hop_delay_us_min"),
    ({"hop2.hops": "-1"}, "hop2.hops"),
    ({"hop1.loss_rate": "1.5"}, "hop1.loss_rate"),
    ({"hop1.reverse_loss_rate": "-0.1"}, "hop1.reverse_loss_rate"),
    ({"hop2.reorder_rate": "1.5"}, "hop2.reorder_rate"),
    ({"hop1.reorder_extra_us": "-1"}, "hop1.reorder_extra_us"),
    ({"hop2.pacing_bps": "0"}, "hop2.pacing_bps"),
    ({"node.relay.rx_sw_us": "-1"}, "node.relay.rx_sw_us"),
    ({"node.sender.tx_sw_us": "-1"}, "node.sender.tx_sw_us"),
    ({"node.receiver.rx_hw_us": "-1"}, "node.receiver.rx_hw_us"),
    ({"stall.probability": "1.5"}, "stall.probability"),
    ({"stall.min_ms": "5", "stall.max_ms": "4"}, "stall.min_ms"),
    ({"capture.fps": "0"}, "capture.fps"),
    ({"capture.app_tx_ms": "-1"}, "capture.app_tx_ms"),
    ({"capture.app_tx_jitter_ms": "8", "capture.app_tx_ms": "7"}, "capture.app_tx_jitter_ms"),
    ({"render.app_rx_ms": "-1"}, "render.app_rx_ms"),
    ({"probe.samples": "0"}, "probe.samples"),
    ({"probe.sizes": ""}, "probe.sizes"),
    ({"segment_payload_size": "0"}, "segment_payload_size"),
    ({"transport.packet_payload_size": "0"}, "transport.packet_payload_size"),
    ({"transport.overhead_bits_per_packet": "-1"}, "transport.overhead_bits_per_packet"),
    ({"transport.retention_frames": "0"}, "transport.retention_frames"),
    ({"transport.nack_delay_ms": "-1"}, "transport.nack_delay_ms"),
    ({"transport.tail_timeout_ms": "-1"}, "transport.tail_timeout_ms"),
    ({"transport.deadline_ms": "-1"}, "transport.deadline_ms"),
    ({"transport.max_nack_rounds": "-1"}, "transport.max_nack_rounds"),
    ({"relay.policy": "nope"}, "relay.policy"),
    ({"relay.forward_delay_ms": "-1"}, "relay.forward_delay_ms"),
    ({"receivers": "0"}, "receivers"),
    ({"clock.sync_req_us": "-1"}, "clock.sync_req_us"),
    ({"clock.sync_resp_us": "-1"}, "clock.sync_req_us"),
    ({"clock.sync_loss_rate": "2"}, "clock.sync_loss_rate"),
    ({"capture.color_bytes": "-1"}, "capture.color_bytes"),
    ({"capture.color_bytes": "0", "capture.depth_bytes": "0", "capture.audio_bytes": "0"},
     "capture.color_bytes"),
    ({"duration_s": "2e8"}, "duration_s"),      # 6e9 frames: frame_id is u32
])
def test_each_scenario_range_rule_names_its_key(overrides, key):
    # validate is the one rule set: the runtime objects a run builds from a
    # config check none of these ranges again
    cfg = ScenarioConfig()
    assert apply_overrides(cfg, overrides) == []
    assert key in [d.key for d in validate(cfg)]


def test_unknown_key_is_rejected():
    cfg, diags = parse_config_text("no.such.key=1\n")
    assert any("unknown" in d.constraint for d in diags)


def test_parse_round_trip():
    cfg = ScenarioConfig()
    cfg.seed = 99
    cfg.hop1.loss_rate = 0.25
    cfg.hop2.pacing_bps = [123, 456]
    cfg.trace.enabled = True
    text = render_config(cfg)
    cfg2, diags = parse_config_text(text)
    assert diags == []
    assert cfg2.seed == 99
    assert cfg2.hop1.loss_rate == 0.25
    assert cfg2.hop2.pacing_bps == [123, 456]
    assert cfg2.trace.enabled is True
    assert render_config(cfg2) == text


def test_parse_comments_and_bad_lines():
    text = "# comment\n\nseed=5\nbroken line\ncapture.fps=60\n"
    cfg, diags = parse_config_text(text)
    assert cfg.seed == 5
    assert cfg.capture.fps == 60
    assert len(diags) == 1 and "key=value" in diags[0].constraint


@pytest.mark.parametrize("line,key", [
    ("trace.file=t.csv   # per-packet trace", "trace.file"),
    ("socket.relay_host=127.0.0.1 # loopback", "socket.relay_host"),
    ("seed=5 # fixed", "seed"),
])
def test_inline_comment_is_a_diagnostic(line, key):
    # a string value would otherwise keep the comment as part of itself
    cfg, diags = parse_config_text(line + "\n")
    assert [(d.key, "whole line" in d.constraint) for d in diags] == [(key, True)]
    assert render_config(cfg) == render_config(ScenarioConfig())


def test_readme_configuration_example_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("A taste:\n\n```\n", 1)[1].split("```", 1)[0]
    cfg, diags = parse_config_text(block)
    assert diags == []
    assert validate(cfg) == []
    assert cfg.hop2.pacing_bps == [1_500_000_000]


def test_scientific_notation_for_int_keys():
    cfg, diags = parse_config_text("hop1.bandwidth_bps=2e9\nhop1.pacing_bps=1.5e9\n")
    assert diags == []
    assert cfg.hop1.bandwidth_bps == 2_000_000_000
    assert cfg.hop1.pacing_bps == [1_500_000_000]


def test_int_keys_parse_hex_and_whole_floats():
    cfg, diags = parse_config_text("socket.base_port=0xBEE\nseed=0x10\nreceivers=2.0\n")
    assert diags == []
    assert (cfg.socket.base_port, cfg.seed, cfg.receivers) == (0xBEE, 16, 2)


@pytest.mark.parametrize("line", [
    "transport.max_nack_rounds=0.5",     # would turn NACK recovery off
    "receivers=1.9",
    "hop2.pacing_bps=1e9,2.5",
])
def test_a_fraction_for_an_int_key_is_a_diagnostic(line):
    # truncating it would run a different scenario than the file names
    cfg, diags = parse_config_text(line + "\n")
    assert [d.key for d in diags] == [line.partition("=")[0]]
    assert render_config(cfg) == render_config(ScenarioConfig())


@pytest.mark.parametrize("key, value", [
    ("out_dir", "runs/#3"),
    ("out_dir", "a\nb"),
    ("out_dir", " out"),
    ("trace.file", "trace.csv\r"),
    ("socket.relay_host", "127.0.0.1 "),
])
def test_a_string_config_txt_cannot_hold_is_invalid(key, value):
    # a run writes its config as config.txt, and a socket run's roles load
    # that file back: a value it would not reload as itself is a diagnostic
    def field(cfg):
        [(obj, name)] = [(obj, name) for k, obj, name in flat_items(cfg) if k == key]
        return obj, name

    cfg = ScenarioConfig()
    setattr(*field(cfg), value)
    assert [d.key for d in validate(cfg)] == [key]
    reloaded, diags = parse_config_text(render_config(cfg))
    assert diags or getattr(*field(reloaded)) != value


def test_a_string_config_txt_holds_is_valid():
    cfg = ScenarioConfig(out_dir="runs/a b", trace=TraceCfg(file="t 1.csv"))
    assert validate(cfg) == []
    reloaded, diags = parse_config_text(render_config(cfg))
    assert diags == []
    assert (reloaded.out_dir, reloaded.trace.file) == ("runs/a b", "t 1.csv")


def test_env_override_mapping():
    environ = {"VOLSTREAM_HOP1_LOSS_RATE": "0.125", "VOLSTREAM_SEED": "77",
               "VOLSTREAM_NODE_RELAY_RX_SW_US": "40",
               "UNRELATED": "x"}
    overrides = env_overrides(environ)
    assert overrides == {"hop1.loss_rate": "0.125", "seed": "77",
                         "node.relay.rx_sw_us": "40"}
    cfg = ScenarioConfig()
    assert apply_overrides(cfg, overrides) == []
    assert cfg.hop1.loss_rate == 0.125
    assert cfg.seed == 77
    assert cfg.node_relay.rx_sw_us == 40


def test_every_flat_key_is_unique():
    keys = flat_keys(ScenarioConfig())
    assert len(keys) == len(set(keys))
    env_names = {k.upper().replace(".", "_") for k in keys}
    assert len(env_names) == len(keys)     # env mapping is collision-free


@pytest.mark.parametrize("key, value", [("experiment", "sweep"), ("experiment", "probe"),
                                        ("mode", "socket")])
def test_trace_is_only_for_a_sim_stream(key, value):
    # a sweep, a probe or a socket run writes no trace.csv
    cfg = ScenarioConfig()
    cfg.trace.enabled = True
    assert validate(cfg) == []
    setattr(cfg, key, value)
    assert [d.key for d in validate(cfg)] == ["trace.enabled"]


def test_socket_mode_restricts_experiment():
    cfg = ScenarioConfig()
    cfg.mode = "socket"
    cfg.experiment = "probe"
    assert any(d.key == "experiment" for d in validate(cfg))


def test_canned_scenarios_build_and_validate():
    assert scenario_names() == sorted(CANNED)
    for name in scenario_names():
        cfg = scenario_config(name)
        assert validate(cfg) == [], name
    with pytest.raises(ConfigError):
        scenario_config("nope")


def test_load_config_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "absent.cfg"))


def test_endpoint_factory_takes_transport_settings():
    cfg = ScenarioConfig(stream_id=7, segment_payload_size=8_000)
    assert apply_overrides(cfg, {
        "transport.packet_payload_size": "256", "transport.overhead_bits_per_packet": "428",
        "transport.retention_frames": "3",
        "transport.nack_delay_ms": "1.5", "transport.tail_timeout_ms": "4",
        "transport.max_nack_rounds": "5", "transport.deadline_ms": "40"}) == []
    clock = NodeClock("n")
    s = cfg.sender_endpoint(1_500_000_000, clock)
    assert (s.stream_id, s.pacer.rate_bps, s.clock) == (7, 1_500_000_000, clock)
    assert (s.packet_payload_size, s.overhead_bits, s.retention_frames) == (256, 428, 3)
    # the application layer cuts a frame into segments; the sender sends them
    assert cfg.capture_profile().segment_size == cfg.segment_payload_size
    ep = cfg.receiver_endpoint()
    assert ep.stream_id == 7
    assert (ep.nack_delay_ns, ep.tail_timeout_ns, ep.max_nack_rounds,
            ep.deadline_ns) == (1_500_000, 4_000_000, 5, 40_000_000)
