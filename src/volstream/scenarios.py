"""Canned experiment scenarios.

``paper-default``     full 300-frame stream with the calibrated desk-scale
                      testbed profile (fixed 7.3 ms capture / 22 ms render,
                      2 Gbps then 1.5 Gbps pacing, per-packet framing
                      overhead and relay forwarding delay tuned so the mean
                      latency decomposition lands on the testbed's reference
                      figures).
``paper-protocol``    the same two-hop transport run with application
                      processing zeroed, for protocol-span measurements.
``paper-probe``       isolated-packet stage probes (128/512/1024 B, 300
                      samples each) over both hops.
``bandwidth-sweep``   serialization-only sweep of the hop pacing rate over
                      1/2/5/10 Gbps with all host stages zeroed.
"""

from __future__ import annotations

from .config import ScenarioConfig, apply_overrides
from .errors import ConfigError

_ZERO_STAGES = {
    f"node.{node}.{key}": "0"
    for node in ("sender", "relay", "receiver")
    for key in ("tx_sw_us", "tx_hw_us", "rx_sw_us", "rx_hw_us")
}

CANNED: dict[str, dict] = {
    "paper-default": {
        "transport.overhead_bits_per_packet": "428",
        "relay.forward_delay_ms": "0.885",
    },
    "paper-protocol": {
        "transport.overhead_bits_per_packet": "428",
        "capture.app_tx_ms": "0",
        "render.app_rx_ms": "0",
    },
    "paper-probe": {
        "experiment": "probe",
    },
    "bandwidth-sweep": {
        "experiment": "sweep",
        "capture.app_tx_ms": "0",
        "render.app_rx_ms": "0",
        **_ZERO_STAGES,
    },
}


def scenario_names() -> list[str]:
    return sorted(CANNED)


def scenario_config(name: str) -> ScenarioConfig:
    overrides = CANNED.get(name)
    if overrides is None:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    cfg = ScenarioConfig()
    diags = apply_overrides(cfg, overrides)
    if diags:  # canned definitions must always apply cleanly
        raise ConfigError(f"bad canned scenario {name}: {diags[0]}")
    return cfg
