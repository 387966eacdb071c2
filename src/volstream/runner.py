"""Experiment dispatch: stream / probe / sweep runs plus table printing."""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

from .config import ScenarioConfig, render_config
from .metrics import NS_PER_MS, ns_to_ms_str, write_report
from .netem import run_probe_experiment
from .pipeline import SimResult, run_simulation

PROBE_STAGE_ORDER = ("tx_sw", "tx_hw", "serialization", "propagation",
                     "switching", "rx_hw", "rx_sw", "total")


@dataclass
class ProbeRunResult:
    per_hop: dict     # hop name -> list[ProbeSizeResult]
    csv_path: str = ""


@dataclass
class SweepRow:
    rate_bps: int
    frames_completed: int
    mean_protocol_tx1_ns: float | None     # None: the rate completed no frame
    ideal_serialization_ns: int
    mean_frame_rx_ns: float | None


@dataclass
class SweepRunResult:
    rows: list
    results: list     # SimResult per rate
    csv_path: str = ""


def run_probe(cfg: ScenarioConfig, write_outputs: bool = True) -> ProbeRunResult:
    """Probe both hops with isolated packets of the configured sizes."""
    per_hop = {
        "hop1": run_probe_experiment(
            cfg.link_model(cfg.hop1), cfg.node_stages(cfg.node_sender),
            cfg.node_stages(cfg.node_relay), cfg.probe.sizes, cfg.probe.samples,
            f"{cfg.seed}:hop1"),
        "hop2": run_probe_experiment(
            cfg.link_model(cfg.hop2), cfg.node_stages(cfg.node_relay),
            cfg.node_stages(cfg.node_receiver), cfg.probe.sizes, cfg.probe.samples,
            f"{cfg.seed}:hop2"),
    }
    result = ProbeRunResult(per_hop=per_hop)
    if write_outputs:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "config.txt"), "w", encoding="utf-8") as fh:
            fh.write(render_config(cfg))
        path = os.path.join(cfg.out_dir, "probe.csv")
        lines = ["hop,packet_bytes,samples,stage,mean_us,p50_us,p99_us"]
        for hop in ("hop1", "hop2"):
            for size_result in per_hop[hop]:
                for stage in PROBE_STAGE_ORDER:
                    st = size_result.stages[stage]
                    lines.append(",".join((
                        hop, str(size_result.packet_bytes), str(size_result.samples),
                        stage, f"{st.mean_ns / 1000:.3f}",
                        f"{st.p50_ns / 1000:.3f}", f"{st.p99_ns / 1000:.3f}",
                    )))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        result.csv_path = path
    return result


def run_sweep(cfg: ScenarioConfig, write_outputs: bool = True) -> SweepRunResult:
    """Run one short stream per sweep rate with both hops paced at that rate."""
    rows = []
    results = []
    frame_bytes = cfg.capture.color_bytes + cfg.capture.depth_bytes + cfg.capture.audio_bytes
    for rate in cfg.sweep.rates_bps:
        sub = copy.deepcopy(cfg)
        sub.experiment = "stream"
        sub.duration_s = cfg.sweep.duration_s
        sub.hop1.pacing_bps = [rate]
        sub.hop2.pacing_bps = [rate]
        result = run_simulation(sub, write_outputs=False)
        results.append(result)
        summary = result.primary.summary
        if write_outputs:
            write_report(result.primary.records, summary, cfg.out_dir, f"_{rate}")
        done = summary.frames_completed > 0
        rows.append(SweepRow(
            rate_bps=rate,
            frames_completed=summary.frames_completed,
            mean_protocol_tx1_ns=summary.stat("protocol_tx1").mean_ns if done else None,
            ideal_serialization_ns=(frame_bytes * 8 * 1_000_000_000) // rate,
            mean_frame_rx_ns=summary.stat("frame_rx").mean_ns if done else None,
        ))
    result = SweepRunResult(rows=rows, results=results)
    if write_outputs:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "config.txt"), "w", encoding="utf-8") as fh:
            fh.write(render_config(cfg))
        path = os.path.join(cfg.out_dir, "sweep.csv")
        lines = ["rate_bps,frames_completed,mean_protocol_tx1_ms,ideal_serialization_ms,mean_frame_rx_ms"]
        for row in rows:
            lines.append(",".join((
                str(row.rate_bps), str(row.frames_completed),
                _mean_ms(row.mean_protocol_tx1_ns, ".6f"),
                ns_to_ms_str(row.ideal_serialization_ns),
                _mean_ms(row.mean_frame_rx_ns, ".6f"),
            )))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        result.csv_path = path
    return result


def _mean_ms(mean_ns: float | None, spec: str) -> str:
    """A sweep mean in ms, or an empty cell for a rate that completed no frame."""
    return "" if mean_ns is None else format(mean_ns / NS_PER_MS, spec)


def format_summary_table(summary) -> str:
    lines = [
        f"{'metric':<14} {'mean_ms':>12} {'p50_ms':>12} {'p95_ms':>12} "
        f"{'p99_ms':>12} {'min_ms':>12} {'max_ms':>12} {'jitter_ms':>12}"
    ]
    for metric, st in summary.stats.items():
        lines.append(
            f"{metric:<14} {st.mean_ns / NS_PER_MS:>12.3f} "
            f"{st.p50_ns / NS_PER_MS:>12.3f} {st.p95_ns / NS_PER_MS:>12.3f} "
            f"{st.p99_ns / NS_PER_MS:>12.3f} {st.min_ns / NS_PER_MS:>12.3f} "
            f"{st.max_ns / NS_PER_MS:>12.3f} {st.jitter_ns / NS_PER_MS:>12.3f}"
        )
    lines.append(f"frames: sent={summary.frames_sent} "
                 f"completed={summary.frames_completed} dropped={summary.frames_dropped}")
    counts = " ".join(f"{k}={v}" for k, v in sorted(summary.packet_counts.items()))
    if counts:
        lines.append(counts)
    return "\n".join(lines)


def format_probe_table(result: ProbeRunResult) -> str:
    lines = [f"{'hop':<6} {'bytes':>6} {'stage':<14} {'mean_us':>10} {'p50_us':>10} {'p99_us':>10}"]
    for hop, size_results in result.per_hop.items():
        for sr in size_results:
            for stage in PROBE_STAGE_ORDER:
                st = sr.stages[stage]
                lines.append(f"{hop:<6} {sr.packet_bytes:>6} {stage:<14} "
                             f"{st.mean_ns / 1000:>10.3f} {st.p50_ns / 1000:>10.3f} "
                             f"{st.p99_ns / 1000:>10.3f}")
    return "\n".join(lines)


def format_sweep_table(result: SweepRunResult) -> str:
    lines = [f"{'rate_bps':>14} {'frames':>7} {'protocol_tx1_ms':>16} {'ideal_ms':>12} {'frame_rx_ms':>12}"]
    for row in result.rows:
        lines.append(f"{row.rate_bps:>14} {row.frames_completed:>7} "
                     f"{_mean_ms(row.mean_protocol_tx1_ns, '.3f'):>16} "
                     f"{row.ideal_serialization_ns / NS_PER_MS:>12.3f} "
                     f"{_mean_ms(row.mean_frame_rx_ns, '.3f'):>12}")
    return "\n".join(lines)


def run_experiment(cfg: ScenarioConfig, write_outputs: bool = True):
    """Dispatch to the configured experiment; returns its result object."""
    if cfg.experiment == "probe":
        return run_probe(cfg, write_outputs)
    if cfg.experiment == "sweep":
        return run_sweep(cfg, write_outputs)
    return run_simulation(cfg, write_outputs)
