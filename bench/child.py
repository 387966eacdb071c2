"""One repeat of one workload, in a fresh process.

    python3 bench/child.py --workload NAME --seed N --traced 0|1 [--sim-seconds S]

Runs the workload through the public API (scenario config plus overrides,
then ``pipeline.run_simulation`` writing its report to a temporary
directory inside the checkout), applies the correctness gate to the report
and prints one JSON object on its last stdout line. A traced repeat also
writes its spans to ``.bench_out/<workload>-seed<seed>.spans.csv``.
``bench/run.py`` starts these one at a time, so ``ru_maxrss`` and the
set-up time belong to this repeat alone.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sim-seconds", type=float, default=None)
    args = ap.parse_args()

    import volstream
    from volstream import pipeline
    from volstream.netem import EventQueue

    if Path(volstream.__file__).resolve().parent != ROOT / "src" / "volstream":
        raise RuntimeError(f"imported volstream from {volstream.__file__}, not {ROOT / 'src'}")

    # Light hooks, present in timed and traced repeats alike: host time of
    # every capture tick, and of the call into the event loop (end of set-up).
    ticks: list[float] = []
    loop_start: list[float] = []
    capture_tick, loop_run = pipeline.capture_tick, EventQueue.run

    def timed_capture_tick(*a, **kw):
        ticks.append(time.perf_counter())
        return capture_tick(*a, **kw)

    def timed_loop_run(self, *a, **kw):
        loop_start.append(time.perf_counter())
        return loop_run(self, *a, **kw)

    pipeline.capture_tick = timed_capture_tick
    EventQueue.run = timed_loop_run

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        cfg = workloads.build_config(args.workload, args.seed, out_dir, args.sim_seconds)
        tr = None
        if args.traced:
            tr = Tracer()
            instrument(tr, cfg.trace.enabled)
        result = pipeline.run_simulation(cfg)
        wall = time.perf_counter() - T0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        counts = [rr.summary.packet_counts for rr in result.receivers]
        hops = counts[0]["hop1_sent"] + sum(c["hop2_sent"] for c in counts)
        lost = counts[0]["hop1_lost"] + sum(c["hop2_lost"] for c in counts)
        retx = counts[0]["hop1_retransmitted"] + sum(c["hop2_retransmitted"] for c in counts)
        g = gate.check_report(out_dir, cfg.receivers, cfg.frame_count(),
                              result.payload_mismatches, result.anomalies.count)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    setup = loop_start[0] - T0
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": setup,
        "wall_s": wall,
        "hops": hops,
        "lost": lost,
        "retransmitted": retx,
        "gaps_ms": [(b - a) * 1e3 for a, b in zip(ticks, ticks[1:])],
        "peak_rss_mb": peak_rss_mb,
        "pairs_attempted": g.pairs_attempted,
        "pairs_completed": g.pairs_completed,
        "failed": g.failed,
        "violations": g.violations,
        "digest": g.digest,
    }
    if tr is not None:
        self_s = tr.self_times_s()
        out["self_s"] = self_s
        out["counters"] = tr.counts()
        out["coverage_share"] = (setup + sum(self_s.values())) / wall
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        tr.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.spans.csv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
