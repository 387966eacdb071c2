"""Scenario configuration: defaults, flat key=value files, validation.

A scenario file is a flat list of ``section.key=value`` lines (``#`` starts
a comment line). Every key has a default; unknown keys are rejected. Any key
can also be overridden through the environment as
``VOLSTREAM_<KEY with dots as underscores, uppercased>``, for example
``VOLSTREAM_HOP1_LOSS_RATE=0.01``.

Durations in the file are milliseconds or microseconds as named by the key;
internally everything becomes integer nanoseconds.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from .appemu import CaptureProfile, DurationDist, RenderProfile
from .errors import ConfigError
from .netem import LinkModel, NodeStageModel
from .relay import RelayNode, StallModel
from .transport import ReceiverEndpoint, SenderEndpoint

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000


def _ms(v: float) -> int:
    return int(round(v * NS_PER_MS))


def _us(v: float) -> int:
    return int(round(v * NS_PER_US))


@dataclass
class CaptureCfg:
    fps: float = 30.0
    app_tx_ms: float = 7.3
    app_tx_jitter_ms: float = 0.0
    color_bytes: int = 1_400_000
    depth_bytes: int = 1_920_000
    audio_bytes: int = 200_000


@dataclass
class RenderCfg:
    app_rx_ms: float = 22.0
    app_rx_jitter_ms: float = 0.0


@dataclass
class TransportCfg:
    packet_payload_size: int = 1_400
    overhead_bits_per_packet: int = 0
    nack_delay_ms: float = 2.0
    tail_timeout_ms: float = 5.0
    max_nack_rounds: int = 3
    deadline_ms: float = 66.6          # 0 disables the frame deadline
    retention_frames: int = 8


@dataclass
class RelayCfg:
    policy: str = "cut_through"        # cut_through | store_forward
    forward_delay_ms: float = 0.0
    queue_high_water_ms: float = 50.0


@dataclass
class StallCfg:
    probability: float = 0.0
    min_ms: float = 0.0
    max_ms: float = 0.0


@dataclass
class HopCfg:
    pacing_bps: list = field(default_factory=lambda: [2_000_000_000])
    bandwidth_bps: int = 10_000_000_000
    distance_km: float = 0.0
    hops: int = 1
    hop_delay_us_min: float = 5.0
    hop_delay_us_max: float = 10.0
    loss_rate: float = 0.0
    reverse_loss_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_extra_us: float = 50.0


@dataclass
class NodeCfg:
    tx_sw_us: float = 2.0
    tx_hw_us: float = 1.0
    rx_sw_us: float = 4.0
    rx_hw_us: float = 2.0


@dataclass
class ClockCfg:
    sender_offset_ms: float = 0.0
    relay_offset_ms: float = 0.0
    drift_ppm: float = 0.0
    sync_interval_s: float = 1.0
    sync_req_us: float = 100.0
    sync_resp_us: float = 100.0
    sync_loss_rate: float = 0.0
    sync_retries: int = 3


@dataclass
class ProbeCfg:
    sizes: list = field(default_factory=lambda: [128, 512, 1024])
    samples: int = 300


@dataclass
class SweepCfg:
    rates_bps: list = field(default_factory=lambda: [1_000_000_000, 2_000_000_000,
                                                     5_000_000_000, 10_000_000_000])
    duration_s: float = 1.0


@dataclass
class TraceCfg:
    enabled: bool = False
    file: str = "trace.csv"


@dataclass
class SocketCfg:
    sender_host: str = "127.0.0.1"
    relay_host: str = "127.0.0.1"
    receiver_host: str = "127.0.0.1"
    base_port: int = 47100
    setup_wait_s: float = 0.3
    drain_timeout_s: float = 2.0


@dataclass
class ScenarioConfig:
    mode: str = "sim"                  # sim | socket
    experiment: str = "stream"         # stream | probe | sweep
    seed: int = 1
    duration_s: float = 10.0
    stream_id: int = 1
    out_dir: str = "out"
    receivers: int = 1
    segment_payload_size: int = 65_000
    capture: CaptureCfg = field(default_factory=CaptureCfg)
    render: RenderCfg = field(default_factory=RenderCfg)
    transport: TransportCfg = field(default_factory=TransportCfg)
    relay: RelayCfg = field(default_factory=RelayCfg)
    stall: StallCfg = field(default_factory=StallCfg)
    hop1: HopCfg = field(default_factory=HopCfg)
    hop2: HopCfg = field(default_factory=lambda: HopCfg(
        pacing_bps=[1_500_000_000], distance_km=1.0, hops=2))
    node_sender: NodeCfg = field(default_factory=NodeCfg)
    node_relay: NodeCfg = field(default_factory=NodeCfg)
    node_receiver: NodeCfg = field(default_factory=NodeCfg)
    clock: ClockCfg = field(default_factory=ClockCfg)
    probe: ProbeCfg = field(default_factory=ProbeCfg)
    sweep: SweepCfg = field(default_factory=SweepCfg)
    trace: TraceCfg = field(default_factory=TraceCfg)
    socket: SocketCfg = field(default_factory=SocketCfg)

    # -- runtime object builders ------------------------------------------------

    def capture_profile(self) -> CaptureProfile:
        c = self.capture
        return CaptureProfile(
            fps=c.fps,
            app_tx=DurationDist(_ms(c.app_tx_ms), _ms(c.app_tx_jitter_ms)),
            color_bytes=c.color_bytes, depth_bytes=c.depth_bytes,
            audio_bytes=c.audio_bytes, segment_size=self.segment_payload_size,
        )

    def render_profile(self) -> RenderProfile:
        r = self.render
        return RenderProfile(app_rx=DurationDist(_ms(r.app_rx_ms), _ms(r.app_rx_jitter_ms)))

    def link_model(self, hop: HopCfg, reverse: bool = False) -> LinkModel:
        return LinkModel(
            bandwidth_bps=hop.bandwidth_bps,
            distance_km=hop.distance_km,
            hops=hop.hops,
            hop_delay_min_ns=_us(hop.hop_delay_us_min),
            hop_delay_max_ns=_us(hop.hop_delay_us_max),
            loss_rate=hop.reverse_loss_rate if reverse else hop.loss_rate,
            reorder_rate=0.0 if reverse else hop.reorder_rate,
            reorder_extra_ns=_us(hop.reorder_extra_us),
        )

    def node_stages(self, node: NodeCfg) -> NodeStageModel:
        return NodeStageModel(
            tx_sw_ns=_us(node.tx_sw_us), tx_hw_ns=_us(node.tx_hw_us),
            rx_sw_ns=_us(node.rx_sw_us), rx_hw_ns=_us(node.rx_hw_us),
        )

    def relay_node(self, upstream, downstreams, scheduler, emit, stall_rng) -> RelayNode:
        """The relay over its upstream endpoint and one downstream sender per
        receiver; ``scheduler`` and ``emit`` come from the mode's driver."""
        s = self.stall
        return RelayNode(
            upstream, downstreams, scheduler, emit,
            policy=self.relay.policy,
            forward_delay_ns=_ms(self.relay.forward_delay_ms),
            stall=StallModel(probability=s.probability, min_ns=_ms(s.min_ms),
                             max_ns=_ms(s.max_ms)),
            stall_rng=stall_rng,
            queue_high_water_ns=_ms(self.relay.queue_high_water_ms),
        )

    def sender_endpoint(self, rate_bps: int, clock) -> SenderEndpoint:
        """A paced sending endpoint: the sender, or one relay downstream."""
        t = self.transport
        return SenderEndpoint(
            self.stream_id, rate_bps, clock,
            packet_payload_size=t.packet_payload_size,
            overhead_bits_per_packet=t.overhead_bits_per_packet,
            retention_frames=t.retention_frames,
        )

    def receiver_endpoint(self) -> ReceiverEndpoint:
        """A receiving endpoint: a final receiver, or the relay's upstream.
        Neither reads a payload byte: a final receiver's ``on_frame``
        (``pipeline.render_on_frame``) checks and renders each frame."""
        t = self.transport
        return ReceiverEndpoint(
            self.stream_id,
            nack_delay_ns=_ms(t.nack_delay_ms),
            tail_timeout_ns=_ms(t.tail_timeout_ms),
            max_nack_rounds=t.max_nack_rounds,
            deadline_ns=_ms(t.deadline_ms),
        )

    def hop2_pacing(self, receiver: int) -> int:
        rates = self.hop2.pacing_bps
        return rates[receiver] if receiver < len(rates) else rates[0]

    def frame_count(self, duration_s: float | None = None) -> int:
        """Frames captured in ``duration_s``, by default the run's."""
        if duration_s is None:
            duration_s = self.duration_s
        return int(duration_s * self.capture.fps + 1e-9)


# -- flat key mapping --------------------------------------------------------

_PREFIXES = {
    "capture": "capture", "render": "render", "transport": "transport",
    "relay": "relay", "stall": "stall", "hop1": "hop1", "hop2": "hop2",
    "node.sender": "node_sender", "node.relay": "node_relay",
    "node.receiver": "node_receiver", "clock": "clock", "probe": "probe",
    "sweep": "sweep", "trace": "trace", "socket": "socket",
}


def flat_items(cfg: ScenarioConfig):
    """Yield (flat_key, holder_object, field_name) for every config field."""
    for f in dataclasses.fields(cfg):
        if f.name in _PREFIXES.values():
            continue
        yield f.name, cfg, f.name
    for prefix, attr in _PREFIXES.items():
        sub = getattr(cfg, attr)
        for f in dataclasses.fields(sub):
            yield f"{prefix}.{f.name}", sub, f.name


def flat_keys(cfg: ScenarioConfig) -> list[str]:
    return [k for k, _, _ in flat_items(cfg)]


def _parse_scalar(text: str, default):
    text = text.strip()
    if isinstance(default, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if isinstance(default, int):
        try:
            return int(text, 0)
        except ValueError:
            value = float(text)       # 2e9, 5.0; a fraction is not truncated
        if not value.is_integer():
            raise ValueError(f"not an integer: {text!r}")
        return int(value)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, list):
        elem = default[0] if default else 0
        return [_parse_scalar(part, elem) for part in text.split(",") if part.strip()]
    return text


@dataclass(frozen=True)
class Diagnostic:
    key: str
    value: object
    constraint: str

    def __str__(self) -> str:
        return f"{self.key}={self.value}: {self.constraint}"


def apply_overrides(cfg: ScenarioConfig, overrides: dict) -> list[Diagnostic]:
    """Apply raw-text overrides in place; returns diagnostics for bad input."""
    table = {key: (obj, name) for key, obj, name in flat_items(cfg)}
    diags = []
    for key, raw in overrides.items():
        entry = table.get(key)
        if entry is None:
            diags.append(Diagnostic(key, raw, "unknown configuration key"))
            continue
        obj, name = entry
        try:
            setattr(obj, name, _parse_scalar(raw, getattr(obj, name)))
        except (ValueError, TypeError) as exc:
            diags.append(Diagnostic(key, raw, f"cannot parse value ({exc})"))
    return diags


def parse_config_text(text: str, base: ScenarioConfig | None = None
                      ) -> tuple[ScenarioConfig, list[Diagnostic]]:
    cfg = base or ScenarioConfig()
    overrides = {}
    diags = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            diags.append(Diagnostic(f"line {lineno}", stripped, "expected key=value"))
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if "#" in value:
            diags.append(Diagnostic(key, value, "a # comment takes a whole line"))
            continue
        overrides[key] = value
    diags.extend(apply_overrides(cfg, overrides))
    return cfg, diags


def load_config_file(path: str, base: ScenarioConfig | None = None
                     ) -> tuple[ScenarioConfig, list[Diagnostic]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base)


def env_overrides(environ=None, prefix: str = "VOLSTREAM_") -> dict:
    """Collect overrides from the environment for every known key."""
    environ = os.environ if environ is None else environ
    out = {}
    for key in flat_keys(ScenarioConfig()):
        env_name = prefix + key.upper().replace(".", "_")
        if env_name in environ:
            out[key] = environ[env_name]
    return out


def render_config(cfg: ScenarioConfig) -> str:
    """Dump the fully-resolved configuration as a loadable key=value text."""
    lines = []
    for key, obj, name in flat_items(cfg):
        value = getattr(obj, name)
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def validate(cfg: ScenarioConfig) -> list[Diagnostic]:
    """Range-check every field; an empty list means the scenario is runnable."""
    d: list[Diagnostic] = []

    def check(cond, key, value, constraint):
        if not cond:
            d.append(Diagnostic(key, value, constraint))

    check(cfg.mode in ("sim", "socket"), "mode", cfg.mode, "must be sim or socket")
    check(cfg.experiment in ("stream", "probe", "sweep"), "experiment",
          cfg.experiment, "must be stream, probe or sweep")
    check(cfg.duration_s > 0, "duration_s", cfg.duration_s, "must be > 0")
    check(cfg.receivers >= 1, "receivers", cfg.receivers, "must be >= 1")
    check(cfg.segment_payload_size >= 1, "segment_payload_size",
          cfg.segment_payload_size, "must be >= 1")
    check(0 <= cfg.stream_id <= 255, "stream_id", cfg.stream_id, "must fit one byte")
    if cfg.mode == "socket":
        check(cfg.experiment == "stream", "experiment", cfg.experiment,
              "socket mode only supports the stream experiment")

    c = cfg.capture
    check(c.fps > 0, "capture.fps", c.fps, "must be > 0")
    # a stream runs for duration_s, each rate of a sweep for sweep.duration_s
    key, duration = (("sweep.duration_s", cfg.sweep.duration_s) if cfg.experiment == "sweep"
                     else ("duration_s", cfg.duration_s))
    if cfg.experiment != "probe" and duration > 0 and c.fps > 0:
        frames = cfg.frame_count(duration)
        check(frames >= 1, key, duration, "must hold at least one frame at capture.fps")
        check(frames <= 0xFFFFFFFF, key, duration,
              "must hold at most 4294967295 frames at capture.fps: frame_id is u32")
    check(c.app_tx_ms >= 0, "capture.app_tx_ms", c.app_tx_ms, "must be >= 0")
    check(0 <= c.app_tx_jitter_ms <= c.app_tx_ms, "capture.app_tx_jitter_ms",
          c.app_tx_jitter_ms, "must be in [0, app_tx_ms]")
    check(c.color_bytes >= 0 and c.depth_bytes >= 0 and c.audio_bytes >= 0,
          "capture.color_bytes", (c.color_bytes, c.depth_bytes, c.audio_bytes),
          "section sizes must be >= 0")
    frame_bytes = c.color_bytes + c.depth_bytes + c.audio_bytes
    check(frame_bytes > 0, "capture.color_bytes", frame_bytes,
          "at least one frame section must be > 0")
    r = cfg.render
    check(r.app_rx_ms >= 0, "render.app_rx_ms", r.app_rx_ms, "must be >= 0")
    check(0 <= r.app_rx_jitter_ms <= r.app_rx_ms, "render.app_rx_jitter_ms",
          r.app_rx_jitter_ms, "must be in [0, app_rx_ms]")

    t = cfg.transport
    check(t.packet_payload_size >= 1, "transport.packet_payload_size",
          t.packet_payload_size, "must be >= 1")
    check(t.packet_payload_size <= 65_000, "transport.packet_payload_size",
          t.packet_payload_size, "must fit a datagram (<= 65000)")
    # segment_index and packet_seq are u16 on the wire
    seg_bytes = min(cfg.segment_payload_size, frame_bytes)
    if seg_bytes >= 1 and t.packet_payload_size >= 1:
        check(-(-frame_bytes // seg_bytes) <= 0xFFFF, "segment_payload_size",
              cfg.segment_payload_size, f"must cut a {frame_bytes}-byte frame into <= 65535 segments")
        check(-(-seg_bytes // t.packet_payload_size) <= 0xFFFF, "transport.packet_payload_size",
              t.packet_payload_size, f"must cut a {seg_bytes}-byte segment into <= 65535 packets")
    check(t.overhead_bits_per_packet >= 0, "transport.overhead_bits_per_packet",
          t.overhead_bits_per_packet, "must be >= 0")
    check(t.nack_delay_ms >= 0, "transport.nack_delay_ms", t.nack_delay_ms, "must be >= 0")
    check(t.tail_timeout_ms >= 0, "transport.tail_timeout_ms", t.tail_timeout_ms,
          "must be >= 0")
    check(t.max_nack_rounds >= 0, "transport.max_nack_rounds", t.max_nack_rounds,
          "must be >= 0")
    check(_ms(t.tail_timeout_ms) > 0 or t.max_nack_rounds == 0, "transport.tail_timeout_ms",
          t.tail_timeout_ms, "must be >= 1 ns while max_nack_rounds > 0: only the tail "
          "timer asks again for a range")
    check(t.deadline_ms >= 0, "transport.deadline_ms", t.deadline_ms,
          "must be >= 0 (0 disables)")
    check(t.retention_frames >= 1, "transport.retention_frames", t.retention_frames,
          "must be >= 1")

    check(cfg.relay.policy in ("cut_through", "store_forward"), "relay.policy",
          cfg.relay.policy, "must be cut_through or store_forward")
    check(cfg.relay.forward_delay_ms >= 0, "relay.forward_delay_ms",
          cfg.relay.forward_delay_ms, "must be >= 0")
    check(cfg.relay.queue_high_water_ms > 0, "relay.queue_high_water_ms",
          cfg.relay.queue_high_water_ms, "must be > 0")

    s = cfg.stall
    check(0.0 <= s.probability <= 1.0, "stall.probability", s.probability,
          "must be in [0, 1]")
    check(0 <= s.min_ms <= s.max_ms, "stall.min_ms", (s.min_ms, s.max_ms),
          "must satisfy 0 <= min <= max")

    # hop 1 has one sender, hop 2 one sender per receiver
    for hop_name, hop, rates, what in (
            ("hop1", cfg.hop1, (1,), "exactly one rate"),
            ("hop2", cfg.hop2, (1, cfg.receivers), "one rate or one per receiver")):
        for i, rate in enumerate(hop.pacing_bps):
            check(rate > 0, f"{hop_name}.pacing_bps", rate,
                  f"pacing rate #{i} must be > 0")
        check(len(hop.pacing_bps) in rates, f"{hop_name}.pacing_bps", hop.pacing_bps,
              f"must list {what}")
        check(hop.bandwidth_bps > 0, f"{hop_name}.bandwidth_bps", hop.bandwidth_bps,
              "must be > 0")
        check(hop.distance_km >= 0, f"{hop_name}.distance_km", hop.distance_km,
              "must be >= 0")
        check(hop.hops >= 0, f"{hop_name}.hops", hop.hops, "must be >= 0")
        check(0 <= hop.hop_delay_us_min <= hop.hop_delay_us_max,
              f"{hop_name}.hop_delay_us_min", (hop.hop_delay_us_min, hop.hop_delay_us_max),
              "must satisfy 0 <= min <= max")
        for key in ("loss_rate", "reverse_loss_rate", "reorder_rate"):
            val = getattr(hop, key)
            check(0.0 <= val <= 1.0, f"{hop_name}.{key}", val, "must be in [0, 1]")
        check(hop.reorder_extra_us >= 0, f"{hop_name}.reorder_extra_us",
              hop.reorder_extra_us, "must be >= 0")

    for node_name, node in (("node.sender", cfg.node_sender),
                            ("node.relay", cfg.node_relay),
                            ("node.receiver", cfg.node_receiver)):
        for key in ("tx_sw_us", "tx_hw_us", "rx_sw_us", "rx_hw_us"):
            val = getattr(node, key)
            check(val >= 0, f"{node_name}.{key}", val, "must be >= 0")

    k = cfg.clock
    check(int(k.sync_interval_s * NS_PER_S) > 0, "clock.sync_interval_s", k.sync_interval_s,
          "must be >= 1 ns")
    check(k.sync_req_us >= 0 and k.sync_resp_us >= 0, "clock.sync_req_us",
          (k.sync_req_us, k.sync_resp_us), "sync path delays must be >= 0")
    check(0.0 <= k.sync_loss_rate <= 1.0, "clock.sync_loss_rate", k.sync_loss_rate,
          "must be in [0, 1]")
    check(k.sync_retries >= 1, "clock.sync_retries", k.sync_retries, "must be >= 1")

    check(bool(cfg.probe.sizes), "probe.sizes", cfg.probe.sizes, "must be non-empty")
    for size in cfg.probe.sizes:
        check(size >= 1, "probe.sizes", size, "sizes must be >= 1")
    check(cfg.probe.samples >= 1, "probe.samples", cfg.probe.samples, "must be >= 1")
    check(bool(cfg.sweep.rates_bps), "sweep.rates_bps", cfg.sweep.rates_bps,
          "must be non-empty")
    for rate in cfg.sweep.rates_bps:
        check(rate > 0, "sweep.rates_bps", rate, "rates must be > 0")
    check(cfg.sweep.duration_s > 0, "sweep.duration_s", cfg.sweep.duration_s,
          "must be > 0")
    check(not cfg.trace.enabled or (cfg.mode, cfg.experiment) == ("sim", "stream"),
          "trace.enabled", cfg.trace.enabled, "only a sim stream writes a trace")
    check(1 <= cfg.socket.base_port <= 65_000, "socket.base_port",
          cfg.socket.base_port, "must be a usable port")
    for key in ("setup_wait_s", "drain_timeout_s"):
        val = getattr(cfg.socket, key)
        check(val >= 0, f"socket.{key}", val, "must be >= 0")
    if cfg.mode == "socket":    # receiver r binds socket.base_port + 10 + r
        check(cfg.socket.base_port + 10 + cfg.receivers - 1 <= 65_535, "receivers",
              cfg.receivers, "socket mode needs socket.base_port + 10 + receivers - 1 <= 65535")

    # config.txt holds each value as one key=value line that a run reloads
    for key, obj, name in flat_items(cfg):
        value = getattr(obj, name)
        if isinstance(value, str):
            check("#" not in value and len(value.splitlines()) <= 1
                  and value == value.strip(), key, repr(value),
                  "must hold no # and no line break, and start and end with no "
                  "whitespace: config.txt could not hold it")
    return d
