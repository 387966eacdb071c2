#!/usr/bin/env python3
"""volstream benchmark: one workload, measured for a fixed host time.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each repeat of the workload is a fresh
``bench/child.py`` process (one at a time), so peak RSS and set-up time
belong to that repeat alone. Repeats continue until ``--seconds`` of host
time is used. Every repeat passes through the correctness gate, and all
repeats at one seed must write byte-identical frames CSVs.

With ``--trace 0`` the timed repeats cycle through ``SUB_SEEDS`` seeds
derived from ``--seed`` (the first is ``--seed`` itself), and there are at
least ``SUB_SEEDS + 1`` of them, so every sub-seed runs once and the first
runs twice. One 300-frame stream completes only about 30 frames on
``lossy-0.1pct``, so a single seed would make ``frames_completed_ratio``
swing by about 15% between seeds; four streams narrow that. With
``--trace 1`` every repeat runs at ``--seed``, in timed/traced pairs, at
least two.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics from the traced repeats, plus the tracing overhead
measured against the timed repeats of the same run. The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 only when the gate passed; a repeat that crashes ends the
run with a nonzero exit and no result line. Details of every repeat, the
seed included, go to ``.bench_out/``; the traced spans too.

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_LIMIT_S = 170          # a run must end well inside 180 s
SUB_SEEDS = 4
SUB_SEED_STRIDE = 1_000_000
MIN_TRACED_PAIRS = 2

END_TO_END = (
    ("pkt_hops_per_s", "packet-hops/s"),
    ("frame_host_ms_p50", "ms"),
    ("frame_host_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("frames_completed_ratio", "ratio"),
)

# Self-time metrics: (metric name, span name).
SELF_TIMES = (
    ("netem.traverse.self_s", "netem.traverse"),
    ("transport.send_frame.self_s", "transport.send_frame"),
    ("transport.send_segment.self_s", "transport.send_segment"),
    ("transport.ingest_run.self_s", "transport.ingest_run"),
    ("transport.on_timer.self_s", "transport.on_timer"),
    ("transport.retransmit.self_s", "transport.retransmit"),
    ("wire.encode_packet.self_s", "wire.encode_packet"),
    ("relay.forward_segment.self_s", "relay.forward_segment"),
    ("appemu.capture_tick.self_s", "appemu.capture_tick"),
    ("pipeline.event_loop.self_s", "pipeline.event_loop"),
    ("metrics.report.self_s", "metrics.report"),
)

COUNTS = (
    "netem.traverse.calls", "netem.traverse.packets", "netem.lost",
    "transport.ingest_run.calls", "transport.duplicates", "transport.late_packets",
    "transport.nacks", "transport.retransmit.packets", "wire.encode_packet.calls",
    "relay.forward_segment.calls", "relay.backpressure_events", "pipeline.events",
)

PER_LAYER_UNITS = {
    **{name: "s" for name, _ in SELF_TIMES},
    **{name: "count" for name in COUNTS},
    "netem.slow_path_share": "ratio",
    "transport.ingest_run.packets_per_call": "packets/call",
    "transport.useful_share": "ratio",
    "retx_per_loss": "ratio",
    "frame_host_ms.samples": "count",
    "trace.coverage_share": "ratio",
    "trace.overhead_pkt_hops_per_s": "packet-hops/s",
}


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)), 1) - 1]


def sub_seed(seed: int, k: int) -> int:
    return seed + (k % SUB_SEEDS) * SUB_SEED_STRIDE


def run_child(args, seed: int, traced: int, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(seed), "--traced", str(traced)]
    if args.sim_seconds is not None:
        cmd += ["--sim-seconds", repr(args.sim_seconds)]
    timeout = max(RUN_LIMIT_S - (time.perf_counter() - started), 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args.workload} repeat exited {proc.returncode}")
    return json.loads(lines[-1])


def first_per_seed(repeats: list[dict]) -> list[dict]:
    out: dict = {}
    for r in repeats:
        out.setdefault(r["seed"], r)
    return list(out.values())


def end_to_end(timed: list[dict]) -> dict:
    gaps = sorted(g for r in timed for g in r["gaps_ms"])
    # Seed-determined outcomes count each distinct seed once.
    first = first_per_seed(timed)
    lost = sum(r["lost"] for r in first)
    return {
        "pkt_hops_per_s": statistics.median(r["hops"] / r["wall_s"] for r in timed),
        "frame_host_ms_p50": nearest_rank(gaps, 0.5),
        "frame_host_ms_p90": nearest_rank(gaps, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "frames_completed_ratio": sum(r["pairs_completed"] for r in first)
        / sum(r["pairs_attempted"] for r in first),
        "retx_per_loss": sum(r["retransmitted"] for r in first) / lost if lost else 0.0,
        "frame_host_ms.samples": len(gaps),
    }


def per_layer(traced: list[dict], e2e: dict) -> dict:
    c = traced[0]["counters"]
    out = {name: statistics.median(r["self_s"].get(span, 0.0) for r in traced)
           for name, span in SELF_TIMES}
    out.update({name: c.get(name, 0) for name in COUNTS})
    packets = c.get("netem.traverse.packets", 0)
    delivered = c.get("transport.ingest_run.packets", 0)
    calls = c.get("transport.ingest_run.calls", 0)
    out["netem.slow_path_share"] = c.get("netem.slow_path_packets", 0) / packets if packets else 0.0
    out["transport.ingest_run.packets_per_call"] = delivered / calls if calls else 0.0
    out["transport.useful_share"] = (c.get("transport.ingest_run.stored", 0) / delivered
                                     if delivered else 0.0)
    out["retx_per_loss"] = e2e["retx_per_loss"]
    out["frame_host_ms.samples"] = e2e["frame_host_ms.samples"]
    out["trace.coverage_share"] = statistics.median(r["coverage_share"] for r in traced)
    traced_rate = statistics.median(r["hops"] / r["wall_s"] for r in traced)
    out["trace.overhead_pkt_hops_per_s"] = traced_rate - e2e["pkt_hops_per_s"]
    return out


def cross_check(repeats: list[dict], traced: list[dict]):
    """Failed (frame, receiver) pairs over all repeats, with what failed.

    A repeat's pairs all count as failed when another repeat at its seed
    wrote a different frames CSV, or, for traced repeats, when the layer
    counts differ between them.
    """
    problems = [v for r in repeats for v in r["violations"]]
    digests: dict = {}
    for r in repeats:
        digests.setdefault(r["seed"], set()).add(r["digest"])
    bad = set()
    for seed, ds in digests.items():
        if len(ds) != 1:
            problems.append(f"seed {seed}: frames CSV differs between repeats: {sorted(ds)}")
            bad.update(i for i, r in enumerate(repeats) if r["seed"] == seed)
    if any(r["counters"] != traced[0]["counters"] for r in traced):
        problems.append("layer counts differ between traced repeats")
        bad.update(i for i, r in enumerate(repeats) if r["traced"])
    failed = sum(r["pairs_attempted"] if i in bad else min(r["failed"], r["pairs_attempted"])
                 for i, r in enumerate(repeats))
    return failed, problems, digests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sim-seconds", type=float, default=None,
                    help="override the workload's simulated duration (self-test only)")
    args = ap.parse_args()

    if not (ROOT / "src" / "volstream" / "__init__.py").is_file():
        print(f"no volstream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    started = time.perf_counter()
    timed, traced = [], []
    while True:
        rounds = len(timed)
        if args.trace:
            timed.append(run_child(args, args.seed, 0, started))
            traced.append(run_child(args, args.seed, 1, started))
        else:
            timed.append(run_child(args, sub_seed(args.seed, rounds), 0, started))
        rounds += 1
        elapsed = time.perf_counter() - started
        enough = rounds >= (MIN_TRACED_PAIRS if args.trace else SUB_SEEDS + 1)
        if enough and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    repeats = timed + traced
    attempted = sum(r["pairs_attempted"] for r in repeats)
    failed, problems, digests = cross_check(repeats, traced)

    e2e = end_to_end(timed)
    if args.trace:
        values = per_layer(traced, e2e)
        units = PER_LAYER_UNITS
    else:
        values = e2e
        units = dict(END_TO_END)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed repeats {len(timed)}  traced repeats {len(traced)}  "
          f"host {time.perf_counter() - started:.1f} s")
    for r in first_per_seed(repeats):
        print(f"seed {r['seed']}: frames CSV sha256 {r['digest']}  completed "
              f"{r['pairs_completed']}/{r['pairs_attempted']} (frame, receiver) pairs")
    if not args.trace:
        print(f"{'frame_host_ms samples':<40}{e2e['frame_host_ms.samples']}")
        print(f"{'retx_per_loss':<40}{e2e['retx_per_loss']:.6g} ratio")
    for name, unit in units.items():
        v = values[name]
        print(f"{name:<40}{v if isinstance(v, int) else f'{v:.6g}'} {unit}")
    for p in problems:
        print(f"GATE: {p}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "sim_seconds": args.sim_seconds,
              "digests": {seed: sorted(ds) for seed, ds in digests.items()},
              "metrics": {n: values[n] for n in units},
              "end_to_end": e2e, "problems": problems,
              "repeats": [{k: v for k, v in r.items() if k != "gaps_ms"} for r in repeats]}
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
