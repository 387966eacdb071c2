"""The benchmark's workloads: each is the canned ``paper-default`` scenario
plus a few config overrides, run in sim mode.

Why each workload exists, and which layers it stresses, is recorded in
BENCHMARK.json and in ``bench/README.md``.
"""

from __future__ import annotations

BASE_SCENARIO = "paper-default"

OVERRIDES: dict[str, dict[str, str]] = {
    # 300 x 3.52 MB frames, 1,400 B packets, clean links: per-byte work.
    "paper-default": {},
    # 4 receivers, 256 B packets, 1 MB frames, 150 frames: per-packet work.
    "fanout-small": {
        "receivers": "4",
        "transport.packet_payload_size": "256",
        "capture.color_bytes": "400000",
        "capture.depth_bytes": "500000",
        "capture.audio_bytes": "100000",
        "duration_s": "5",
    },
    # 0.1% loss on both forward hops with the default NACK settings.
    "lossy-0.1pct": {
        "hop1.loss_rate": "0.001",
        "hop2.loss_rate": "0.001",
    },
}

NAMES = tuple(OVERRIDES)


def build_config(name: str, seed: int, out_dir: str, sim_seconds: float | None = None):
    """The validated ScenarioConfig of workload ``name`` at ``seed``."""
    from volstream.config import apply_overrides, validate
    from volstream.scenarios import scenario_config

    cfg = scenario_config(BASE_SCENARIO)
    overrides = dict(OVERRIDES[name], seed=str(seed), out_dir=out_dir)
    if sim_seconds is not None:
        overrides["duration_s"] = repr(sim_seconds)
    diags = apply_overrides(cfg, overrides) + validate(cfg)
    if diags:
        raise ValueError(f"workload {name}: {diags[0]}")
    return cfg
