"""Experiment dispatch (``run_experiment``, the one place that validates a
run's config, picks what runs and writes ``config.txt``) and the probe and
sweep experiments. Each result has ``table()``, its console text, and
``streams()``, the ``(label, RunSummary)`` of every stream that must
complete a frame and pass the payload check. ``config.txt``, ``probe.csv``
and ``sweep*.csv`` are written by ``metrics.write_text``."""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .config import ScenarioConfig, render_config, validate
from .errors import ConfigError
from .metrics import NS_PER_MS, ns_to_ms_str, write_text
from .netem import run_probe_experiment
from .pipeline import run_simulation, write_reports


@dataclass
class ProbeRunResult:
    per_hop: dict     # hop name -> list[ProbeSizeResult]

    def stage_rows(self):
        """``(hop, size result, stage, stage stats)`` in report order."""
        for hop, size_results in self.per_hop.items():
            for sr in size_results:
                for stage, st in sr.stages.items():
                    yield hop, sr, stage, st

    def table(self) -> str:
        lines = [f"{'hop':<6} {'bytes':>6} {'stage':<14} {'mean_us':>10} {'p50_us':>10} "
                 f"{'p99_us':>10}"]
        lines += [f"{hop:<6} {sr.packet_bytes:>6} {stage:<14} {st.mean_ns / 1000:>10.3f} "
                  f"{st.p50_ns / 1000:>10.3f} {st.p99_ns / 1000:>10.3f}"
                  for hop, sr, stage, st in self.stage_rows()]
        return "\n".join(lines)

    def streams(self) -> list:
        return []     # isolated packets: no frame to complete


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
    results: list     # StreamResult per rate

    def table(self) -> str:
        lines = [f"{'rate_bps':>14} {'frames':>7} {'protocol_tx1_ms':>16} {'ideal_ms':>12} "
                 f"{'frame_rx_ms':>12}"]
        lines += [f"{row.rate_bps:>14} {row.frames_completed:>7} "
                  f"{_mean_ms(row.mean_protocol_tx1_ns, '.3f'):>16} "
                  f"{row.ideal_serialization_ns / NS_PER_MS:>12.3f} "
                  f"{_mean_ms(row.mean_frame_rx_ns, '.3f'):>12}" for row in self.rows]
        return "\n".join(lines)

    def streams(self) -> list:
        """Every receiver at every rate is a stream."""
        return [(f"sweep rate {row.rate_bps} bps" + (f" receiver {r}" if r else ""),
                 rr.summary)
                for row, result in zip(self.rows, self.results)
                for r, rr in enumerate(result.receivers)]


def run_probe(cfg: ScenarioConfig, write_outputs: bool = True) -> ProbeRunResult:
    """Probe both hops with isolated packets of the configured sizes."""
    result = ProbeRunResult(per_hop={
        "hop1": run_probe_experiment(
            cfg.link_model(cfg.hop1), cfg.node_stages(cfg.node_sender),
            cfg.node_stages(cfg.node_relay), cfg.probe.sizes, cfg.probe.samples,
            f"{cfg.seed}:hop1"),
        "hop2": run_probe_experiment(
            cfg.link_model(cfg.hop2), cfg.node_stages(cfg.node_relay),
            cfg.node_stages(cfg.node_receiver), cfg.probe.sizes, cfg.probe.samples,
            f"{cfg.seed}:hop2"),
    })
    if write_outputs:
        lines = ["hop,packet_bytes,samples,stage,mean_us,p50_us,p99_us\n"]
        lines += [f"{hop},{sr.packet_bytes},{sr.samples},{stage},{st.mean_ns / 1000:.3f},"
                  f"{st.p50_ns / 1000:.3f},{st.p99_ns / 1000:.3f}\n"
                  for hop, sr, stage, st in result.stage_rows()]
        write_text(cfg.out_dir, "probe.csv", lines)
    return result


def run_sweep(cfg: ScenarioConfig, write_outputs: bool = True) -> SweepRunResult:
    """Run one short stream per sweep rate with both hops paced at that rate.
    Receiver 0's rows go to ``sweep.csv``, receiver r > 0's to
    ``sweep_r{r}.csv``, named like the rates' stream reports."""
    results = []
    for rate in cfg.sweep.rates_bps:
        sub = copy.deepcopy(cfg)
        sub.experiment = "stream"
        sub.duration_s = cfg.sweep.duration_s
        sub.hop1.pacing_bps = [rate]
        sub.hop2.pacing_bps = [rate]
        result = run_simulation(sub, write_outputs=False)
        results.append(result)
        if write_outputs:
            write_reports(result.receivers, cfg.out_dir, f"_{rate}")
    frame_bytes = cfg.capture.color_bytes + cfg.capture.depth_bytes + cfg.capture.audio_bytes
    rows = [[_sweep_row(rate, result.receivers[r].summary, frame_bytes)
             for rate, result in zip(cfg.sweep.rates_bps, results)]
            for r in range(cfg.receivers)]
    if write_outputs:
        for r, receiver_rows in enumerate(rows):
            lines = ["rate_bps,frames_completed,mean_protocol_tx1_ms,"
                     "ideal_serialization_ms,mean_frame_rx_ms\n"]
            lines += [f"{row.rate_bps},{row.frames_completed},"
                      f"{_mean_ms(row.mean_protocol_tx1_ns, '.6f')},"
                      f"{ns_to_ms_str(row.ideal_serialization_ns)},"
                      f"{_mean_ms(row.mean_frame_rx_ns, '.6f')}\n" for row in receiver_rows]
            write_text(cfg.out_dir, f"sweep_r{r}.csv" if r else "sweep.csv", lines)
    return SweepRunResult(rows=rows[0], results=results)


def _sweep_row(rate: int, summary, frame_bytes: int) -> SweepRow:
    done = summary.frames_completed > 0
    return SweepRow(
        rate_bps=rate,
        frames_completed=summary.frames_completed,
        mean_protocol_tx1_ns=summary.stat("protocol_tx1").mean_ns if done else None,
        ideal_serialization_ns=(frame_bytes * 8 * 1_000_000_000) // rate,
        mean_frame_rx_ns=summary.stat("frame_rx").mean_ns if done else None,
    )


def _mean_ms(mean_ns: float | None, spec: str) -> str:
    """A sweep mean in ms, or an empty cell for a rate that completed no frame."""
    return "" if mean_ns is None else format(mean_ns / NS_PER_MS, spec)


def run_experiment(cfg: ScenarioConfig, write_outputs: bool = True,
                   role: str | None = None, role_index: int = 0):
    """Run ``cfg.experiment`` in ``cfg.mode``; with ``write_outputs`` write
    ``config.txt`` and the reports under ``cfg.out_dir``. A socket run always
    writes them: its roles read ``config.txt``. With ``role`` one socket role
    runs (spawned by the orchestrator, or by hand per host) and None is
    returned: the orchestrator reports the run.

    ``config.validate`` is applied first and is the only range check: the
    runtime objects built from ``cfg`` check none again. A config that fails
    it, a role in sim mode, or a receiver role whose index names no
    receiver, is a ``ConfigError`` (listing every diagnostic), raised before
    anything is written."""
    diags = validate(cfg)
    if diags:
        raise ConfigError("; ".join(str(d) for d in diags))
    socket_mode = cfg.mode == "socket"
    if role and not socket_mode:
        raise ConfigError(f"role {role!r} needs socket mode; mode is {cfg.mode!r}")
    if role == "receiver" and not 0 <= role_index < cfg.receivers:
        raise ConfigError(f"receiver role index {role_index} is not in "
                          f"0..{cfg.receivers - 1}")
    if socket_mode:
        from . import sockets    # keeps socket, subprocess and json out of sim runs
        if role:
            sockets.run_role(cfg, role, role_index)
            return None
    if write_outputs or socket_mode:
        config_path = write_text(cfg.out_dir, "config.txt", [render_config(cfg)])
    if socket_mode:
        return sockets.run_socket_orchestrated(cfg, config_path)
    if cfg.experiment == "probe":
        return run_probe(cfg, write_outputs)
    if cfg.experiment == "sweep":
        return run_sweep(cfg, write_outputs)
    return run_simulation(cfg, write_outputs)
